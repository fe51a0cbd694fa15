"""Numeric probes of the truncated integral near the threshold.

After the radial/log substitution y_e = -ln|z_e| >= 1, the non-bridge part
of the integral reduces (up to positive constants) to

    F(R) = integral of psi(y)^(-s) over [1, R]^e,

so convergence of the original integral for real s is mirrored by F(R)
saturating as R grows.  The probe estimates F on a grid of box sizes and
classifies the growth of the increments.

Verdict rule (fixed): with the default grid R = e^4, e^6, e^8, e^10 and
increment ratios r_k = (F(R_{k+1}) - F(R_k)) / (F(R_k) - F(R_{k-1})),
the verdict is "saturating" when both of the last two ratios are < 0.6,
"diverging" when both are >= 0.85, and "inconclusive" otherwise (including
whenever a Monte Carlo standard error exceeds 10% of its increment).
Log-divergence drives the ratios to 1; convergent tails decay
geometrically; the dead zone avoids overclaiming.  The thresholds are
configuration, not truth.

Each Monte Carlo stratum still draws from its own stream, PCG64 seeded by
SeedSequence(seed, spawn_key=(region, stratum)); only the set-up is
batched: a copy of SeedSequence's hash derives the seed words of all
strata of a region in one numpy pass, numpy's PCG64 seeds itself from them
through the ISeedSequence interface, and the strata are evaluated in
bounded blocks, one row per variable (see _mc_region).  The points depend
on the seed, the grid and the sample count but not on s, so
truncated_J(..., s_values=...) draws and evaluates them once for several
exponents, and analyze --probe takes c and c + 1/2 from one pass.  Tensor
quadrature builds its Gauss-Legendre rule once per probe and evaluates the
grid from its per-axis coordinates in blocks of at most BLOCK_POINTS
points (one leading-axis row when a row is larger), for all exponents at
once; its memory is one full-grid buffer per exponent (see _gl_region).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .graphs import Multigraph, bridges
from .kirchhoff import psi_trees

PROBE_MAX_EDGES = 6
# 100x the default; at this ceiling a stratum holds at most 46,296 points
# (3 dimensions, 216 strata), so one stratum always fits in a block
MAX_SAMPLES = 10_000_000
# points per integrand call, Monte Carlo or quadrature (at least one
# quadrature row); bounds the temporaries whatever the samples or rule
BLOCK_POINTS = 1 << 16
QUADRATURE_MAX_EDGES = 4
# Gauss-Legendre nodes per axis of the probe's quadrature: 32^4 = 1 million
# points in blocks of BLOCK_POINTS, one 8.4 MB full-grid buffer per exponent
# (model_integral's 48 nodes: 5.3 million points, one-row blocks, 42 MB)
QUADRATURE_NODES = 32
DEFAULT_SEED = 53771
DEFAULT_GRID = (
    math.exp(4.0),
    math.exp(6.0),
    math.exp(8.0),
    math.exp(10.0),
)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for
# _stream_states
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _is_real(x) -> bool:
    """A real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class ProbeConfig:
    s: float
    r_grid: tuple[float, ...] = DEFAULT_GRID
    samples: int = 100_000
    seed: int = DEFAULT_SEED
    method: str = "monte_carlo"  # or "tensor_quadrature" (QUADRATURE_NODES per axis)

    def __post_init__(self):
        if not _is_real(self.s) or not math.isfinite(self.s) or self.s <= 0:
            raise ValueError(f"s must be a positive finite number, got {self.s!r}")
        if self.method not in ("monte_carlo", "tensor_quadrature"):
            raise ValueError(f"unknown probe method {self.method!r}")
        if (not isinstance(self.r_grid, (tuple, list))
                or not all(map(_is_real, self.r_grid))):
            raise ValueError(
                f"r_grid must be a sequence of numbers, got {self.r_grid!r}")
        grid = tuple(float(r) for r in self.r_grid)
        object.__setattr__(self, "r_grid", grid)
        if len(grid) < 3:
            raise ValueError("r_grid needs at least 3 entries for a verdict")
        if not all(math.isfinite(r) for r in grid):
            raise ValueError("every grid radius must be a finite number")
        if any(r < math.e for r in grid):
            raise ValueError("every grid radius must be >= e (so ln >= 1)")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise ValueError("r_grid must be strictly increasing")
        if not isinstance(self.samples, int) or isinstance(self.samples, bool):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 1000:
            raise ValueError(f"samples must be at least 1000, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(
                f"samples must be at most {MAX_SAMPLES}, got {self.samples}"
            )
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class GrowthVerdict:
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    increments: tuple[float, ...]
    ratios: tuple[float, ...]
    verdict: str  # "saturating" | "diverging" | "inconclusive"
    decay_ratio: float


def _verdict_json(verdict: GrowthVerdict) -> dict:
    """A verdict's keys of a probe's JSON payload, in output order."""
    return {
        "values": list(verdict.values),
        "stderrs": list(verdict.stderrs),
        "increments": list(verdict.increments),
        "ratios": list(verdict.ratios),
        "decay_ratio": verdict.decay_ratio,
        "verdict": verdict.verdict,
    }


def _integrand(supports, s_values, usum: np.ndarray, ys, reduce) -> list:
    """reduce(f) for each s in s_values, in order, where
    f(u) = exp(sum u) * psi(exp(u))^(-s) on the log-coordinate box.

    usum is the 1-D coordinate sum of every point; ys holds one factor
    exp(u_d) per variable, each broadcasting to the points (flattened in C
    order), so the quadrature grid never materialises its coordinates.
    Each psi term is multiplied out over its support in the order of a
    row-wise np.prod.  psi and exp(sum u) are computed once for all
    exponents; each f is reduced before the next is formed, so one f block
    is live at a time, and the last f is formed in psi's place.
    """
    vals = np.empty(np.broadcast_shapes(*(y.shape for y in ys)))
    for i, (first, *rest) in enumerate(supports):
        term = ys[first]
        for col in rest:
            term = term * ys[col]
        if i:
            vals += term
        else:  # copied, not aliased: a one-factor term is a view of ys
            np.copyto(vals, term)
    vals = vals.reshape(usum.shape)
    if np.any(vals <= 0):
        raise RuntimeError(
            "Kirchhoff polynomial evaluated non-positive on the positive "
            "orthant; impossible for a connected bridgeless graph"
        )
    eu = np.exp(usum)
    out = [reduce(eu * vals ** (-s)) for s in s_values[:-1]]
    # in place, the same float operations as eu * vals ** (-s)
    vals **= -s_values[-1]
    vals *= eu
    del eu
    out.append(reduce(vals))
    return out


def _strata_per_axis(dim: int) -> int:
    return max(1, int(round(256 ** (1.0 / dim))))


def _n_words(n: int) -> int:
    # the 32-bit words of SeedSequence's coercion of a non-negative int
    return max(1, -(-n.bit_length() // 32))


def _hashed(value, const: int, mult: int):
    # one step of SeedSequence's hash on uint32 rows, and the next constant
    nxt = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ (value >> np.uint32(16)), nxt


def _stream_states(seed: int, region: int, strata) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(region, k)).generate_state(4, np.uint64)
    for every k in strata, as the columns of one (4, len(strata)) uint64
    array, derived in one pass.

    This is numpy's SeedSequence algorithm, stable by NumPy's policy
    (NEP 19).  The pool mixed from the seed and the region is
    SeedSequence(seed, spawn_key=(region,)).pool; the stratum's word (one,
    as each stratum is below 2**32) is then mixed into it, and
    generate_state hashes the pool into the words.  Only the stratum word
    varies, so each step runs on uint32 rows with one entry per stratum and
    wraps modulo 2**32 as the C code does.
    """
    np.random.bit_generator.ISeedSequence.register(_StreamWords)
    strata = np.asarray(strata, dtype=np.uint32)
    pool = [np.full(strata.size, word, dtype=np.uint32)
            for word in np.random.SeedSequence(seed, spawn_key=(region,)).pool]
    # mixing each padded-seed and region word stepped the hash _POOL_SIZE times
    mixed = max(_POOL_SIZE, _n_words(seed)) + _n_words(region)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * mixed, 1 << 32) & _MASK32
    for dst in range(_POOL_SIZE):
        hashed, hash_const = _hashed(strata, hash_const, _MULT_A)
        value = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = value ^ (value >> np.uint32(16))
    # generate_state(4, np.uint64): eight words hashed from the cycled pool
    hash_const = _INIT_B
    words = np.empty((8, strata.size), dtype=np.uint64)
    for i in range(8):
        words[i], hash_const = _hashed(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    return words[0::2] | (words[1::2] << np.uint64(32))


@dataclass
class _StreamWords:
    """One stratum's _stream_states words, one contiguous row (PCG64 reads
    generate_state(4, np.uint64) from the array's data), for np.random.PCG64
    to seed itself from.  _stream_states registers it as an ISeedSequence;
    subclassing that would load numpy.random whenever modgraph is imported."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _mc_region(supports, s_values, lo, hi, samples, seed, region_index):
    """Stratified Monte Carlo estimates of one log-coordinate box, one
    (estimate, standard error) pair per exponent in s_values.

    Each stratum draws its points from its own stream, PCG64 seeded by
    SeedSequence(seed, spawn_key=(region_index, stratum)), so the estimate
    is reproducible for a given seed regardless of evaluation order or
    worker count; each stratum's PCG64 seeds itself from its _stream_states
    words.  Strata are evaluated in blocks of at most BLOCK_POINTS points,
    one integrand call per block for all exponents.  Each stratum draws its
    (per, dim) rows of the block's point-major buffer, which is mapped to
    its cells as cell_lo + span * r, the operations of Generator.uniform,
    into a variable-major (dim, count, per) array, one row of points per
    variable, whose rows are added left to right as numpy's row sum of the
    points does.  Each stratum's mean and variance (numpy's mean and
    var(ddof=1)) enter each exponent's totals in stratum order, so the
    result does not depend on the block size or on the other exponents.
    """
    dim = len(lo)
    splits = _strata_per_axis(dim)
    n_strata = splits**dim
    per = max(2, samples // n_strata)
    block = max(1, BLOCK_POINTS // per)
    lo = np.asarray(lo, dtype=float)
    widths = (np.asarray(hi, dtype=float) - lo) / splits
    # digit d of a stratum's index in base `splits` is its cell along axis d
    k = np.arange(n_strata) // splits ** np.arange(dim)[:, None] % splits
    cell_lo = lo[:, None] + k * widths[:, None]
    span = lo[:, None] + (k + 1) * widths[:, None] - cell_lo
    vols = span.prod(axis=0)  # rows multiplied left to right, as math.prod
    words = np.ascontiguousarray(_stream_states(seed, region_index, range(n_strata)).T)
    means, variances = np.empty((2, len(s_values), n_strata))

    def moments(f):  # numpy's mean and var(ddof=1) of each stratum; overwrites f
        f = f.reshape(-1, per)
        mean = f.sum(axis=1) / per
        np.square(np.subtract(f, mean[:, None], out=f), out=f)
        return mean, f.sum(axis=1) / (per - 1)

    for first in range(0, n_strata, block):
        count = min(block, n_strata - first)
        u = np.empty((count, per, dim))
        part = slice(first, first + count)
        for row, out in zip(words[part], u):
            np.random.Generator(np.random.PCG64(_StreamWords(row))).random(out=out)
        ys = np.multiply(u.transpose(2, 0, 1), span[:, part, None], order="C")
        ys += cell_lo[:, part, None]
        usum = ys[0].copy()
        for d in range(1, dim):
            usum += ys[d]
        np.exp(ys, out=ys)
        stats = _integrand(supports, s_values, usum.ravel(), ys, moments)
        del u, ys, usum  # freed before the next block's are formed
        means[:, part], variances[:, part] = zip(*stats)
    # accumulate adds in stratum order, where np.sum would add pairwise
    totals = np.add.accumulate(vols * means, axis=1)[:, -1]
    errs = np.sqrt(np.add.accumulate(vols * vols * variances / per, axis=1)[:, -1])
    return list(zip(totals.tolist(), errs.tolist()))


def _gl_region(supports, s_values, lo, hi, rule):
    """Tensor Gauss-Legendre estimates of one log-coordinate box, one
    (estimate, 0.0) pair per exponent in s_values, from rule = (x, w), the
    nodes and weights of leggauss on [-1, 1].

    The grid is evaluated in blocks of leading-axis rows, at most
    BLOCK_POINTS points or one row, one integrand call per block for all
    exponents.  Each block slices the per-axis arrays: the coordinate sum
    is broadcast as ((u_0 + u_1) + u_2) + ..., the left-to-right order of a
    row sum, and exp runs once per axis node rather than once per point.
    Each exponent's weighted values fill one full-grid buffer, summed once
    at the end, so the result does not depend on the block size.
    """
    dim = len(lo)
    x, w = rule
    axes = []
    weights = []
    for d in range(dim):
        half = (hi[d] - lo[d]) / 2.0
        mid = (hi[d] + lo[d]) / 2.0
        axes.append(mid + half * x)
        weights.append(half * w)
    grid = np.meshgrid(*axes, indexing="ij", sparse=True)
    wgrid = np.meshgrid(*weights, indexing="ij", sparse=True)
    ys = [np.exp(g) for g in grid]
    n = len(x)
    row = n ** (dim - 1)
    rows = max(1, BLOCK_POINTS // row)
    bufs = [np.empty(n * row) for _ in s_values]
    for first in range(0, n, rows):
        part = slice(first, first + rows)
        usum = grid[0][part]
        for g in grid[1:]:
            usum = usum + g
        wprod = wgrid[0][part]
        for g in wgrid[1:]:
            wprod = wprod * g
        wprod = wprod.ravel()
        outs = iter([b[first * row : (first + rows) * row] for b in bufs])
        _integrand(supports, s_values, usum.ravel(), [ys[0][part], *ys[1:]],
                   lambda f: np.multiply(f, wprod, out=next(outs)))
    return [(float(np.sum(b)), 0.0) for b in bufs]


def _shell_slabs(inner: float, outer: float, dim: int):
    """Disjoint boxes covering [0, outer]^dim minus [0, inner]^dim."""
    for axis in range(dim):
        lo = [0.0] * dim
        hi = [inner] * dim
        for d in range(axis + 1, dim):
            hi[d] = outer
        lo[axis] = inner
        hi[axis] = outer
        yield lo, hi


def truncated_J(g: Multigraph, cfg: ProbeConfig, *,
                s_values: tuple[float, ...] | None = None
                ) -> GrowthVerdict | tuple[GrowthVerdict, ...]:
    """Estimate F(R) over the grid and classify its growth.

    The graph must be bridgeless (contract bridges first; bridge variables
    only contribute bounded positive factors).  Increment estimates come
    from integrating each shell between consecutive boxes directly, so the
    reported F values are automatically nondecreasing in R.

    With the keyword s_values (a tuple of exponents, each checked as
    ProbeConfig checks s), cfg.s is ignored and one GrowthVerdict is
    returned per exponent, in order.  Both methods evaluate their points
    once for all of them.  Each verdict equals the one a call with cfg.s
    set to that exponent returns, and the first exponent that such a call
    would reject raises its error.
    """
    if s_values is None:
        exponents = (cfg.s,)
    elif not isinstance(s_values, (tuple, list)) or not s_values:
        raise ValueError(
            f"s_values must be a non-empty sequence of numbers, got {s_values!r}")
    else:
        exponents = tuple(replace(cfg, s=s).s for s in s_values)
    if bridges(g):
        raise ValueError("probe needs a bridgeless graph; contract bridges first")
    e = g.n_edges
    if e == 0:
        raise ValueError("probe needs at least one edge")
    if e > PROBE_MAX_EDGES:
        raise ValueError(f"probe supports at most {PROBE_MAX_EDGES} edges, got {e}")
    if cfg.method == "tensor_quadrature" and e > QUADRATURE_MAX_EDGES:
        raise ValueError(
            f"tensor quadrature supports at most {QUADRATURE_MAX_EDGES} edges"
        )
    supports = psi_trees(g).supports()
    logs = [math.log(r) for r in cfg.r_grid]
    rule = (np.polynomial.legendre.leggauss(QUADRATURE_NODES)
            if cfg.method == "tensor_quadrature" else None)

    regions: list[tuple[list[float], list[float]]] = [([0.0] * e, [logs[0]] * e)]
    shell_of: list[int] = [0]  # region index -> grid index the region feeds
    for k in range(len(logs) - 1):
        for lo, hi in _shell_slabs(logs[k], logs[k + 1], e):
            regions.append((lo, hi))
            shell_of.append(k + 1)

    # per exponent, the estimate and variance of each grid index's shell
    pieces = [[0.0] * len(logs) for _ in exponents]
    piece_vars = [[0.0] * len(logs) for _ in exponents]
    # an overflow is reported below as a non-finite verdict, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for ridx, (lo, hi) in enumerate(regions):
            if cfg.method == "monte_carlo":
                n = cfg.samples if shell_of[ridx] == 0 else max(1000, cfg.samples // e)
                ests = _mc_region(supports, exponents, lo, hi, n, cfg.seed, ridx)
            else:
                ests = _gl_region(supports, exponents, lo, hi, rule)
            for piece, piece_var, (est, err) in zip(pieces, piece_vars, ests):
                piece[shell_of[ridx]] += est
                piece_var[shell_of[ridx]] += err * err
    verdicts = tuple(map(_growth_verdict, exponents, pieces, piece_vars))
    return verdicts[0] if s_values is None else verdicts


def _growth_verdict(s, piece, piece_var) -> GrowthVerdict:
    """Classify the shell estimates of one exponent, or raise the ValueError
    that says why the probe cannot resolve growth at s."""
    values = []
    stderrs = []
    run = 0.0
    var_run = 0.0
    for k in range(len(piece)):
        run += piece[k]
        var_run += piece_var[k]
        values.append(run)
        stderrs.append(math.sqrt(var_run))
    increments = tuple(piece[1:])
    if any(inc == 0.0 for inc in increments):
        # the integrand is positive, so a zero shell is float underflow
        raise ValueError(
            f"the increments of F underflow to 0.0 at s = {s!r}; "
            "the probe cannot resolve growth at this s"
        )
    inc_errs = tuple(math.sqrt(v) for v in piece_var[1:])
    ratios = tuple(
        increments[i + 1] / increments[i] for i in range(len(increments) - 1)
    )
    if not all(map(math.isfinite, (*values, *stderrs, *increments, *ratios))):
        raise ValueError(
            f"F, its standard error or a ratio is not finite at s = {s!r} "
            "on this grid (float overflow); the probe cannot resolve growth"
        )

    last_two = ratios[-2:]
    noisy = any(
        err > 0.1 * inc
        for inc, err in zip(increments[-3:], inc_errs[-3:])
        if inc > 0
    )
    if noisy or any(inc <= 0 for inc in increments[-3:]):
        verdict = "inconclusive"
    elif all(r < 0.6 for r in last_two):
        verdict = "saturating"
    elif all(r >= 0.85 for r in last_two):
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return GrowthVerdict(
        values=tuple(values),
        stderrs=tuple(stderrs),
        increments=increments,
        ratios=ratios,
        verdict=verdict,
        decay_ratio=ratios[-1],
    )


# ---------------------------------------------------------------------------
# Model integrals


def _antiderivative(p: Fraction, q: int) -> list[tuple[Fraction, Fraction, int]]:
    """Antiderivative of u^p ln^q u as terms (coeff, power, log power)."""
    if p == -1:
        return [(Fraction(1, q + 1), Fraction(0), q + 1)]
    out = []
    coeff = Fraction(1)
    for r in range(q, -1, -1):
        out.append((coeff / (p + 1), p + 1, r))
        coeff = -coeff * r / (p + 1)
    return out


def _iterated_sum_integral(n: int, s: int, R: float) -> float:
    """Exact iterated antiderivatives for integer s.

    Terms are c * (T + i + j*R)^p * ln^q(T + i + j*R) with exact rational
    coefficients; each integration splits every term at the bounds y = 1 and
    y = R.  The final value is the evaluation at T = 0.
    """
    terms: dict[tuple[Fraction, int, int, int], Fraction] = {
        (Fraction(-s), 0, 0, 0): Fraction(1)
    }
    for _ in range(n):
        nxt: dict[tuple[Fraction, int, int, int], Fraction] = {}
        for (p, q, i, j), c in terms.items():
            for ac, ap, aq in _antiderivative(p, q):
                for shift, sign in (((i, j + 1), 1), ((i + 1, j), -1)):
                    key = (ap, aq, shift[0], shift[1])
                    nxt[key] = nxt.get(key, Fraction(0)) + sign * c * ac
        terms = {k: v for k, v in nxt.items() if v}
    total = 0.0
    for (p, q, i, j), c in terms.items():
        base = i + j * R
        val = float(c) * base ** float(p)
        if q:
            val *= math.log(base) ** q
        total += val
    return total


def model_integral(n: int, mode: str, s: float, R: float) -> float:
    """Model integrals calibrating the growth verdicts.

    mode "product": the integral of (y_1*...*y_n)^(-s) over [1, R]^n, i.e.
    the n-th power of a one-dimensional closed form; converges for s > 1.
    mode "sum": the integral of (y_1+...+y_n)^(-s) over [1, R]^n, exact by
    iterated antiderivatives for integer s, tensor Gauss-Legendre
    quadrature otherwise (at most QUADRATURE_MAX_EDGES variables);
    converges for s > n and diverges at s = n.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > PROBE_MAX_EDGES:
        raise ValueError(f"model integrals support at most {PROBE_MAX_EDGES} variables")
    for name, value in (("s", s), ("R", R)):
        if not _is_real(value) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    if R <= math.e:
        raise ValueError("R must exceed e")
    if mode == "product":
        if s == 1.0:
            one = math.log(R)
        else:
            one = (1.0 - R ** (1.0 - s)) / (s - 1.0)
        return one**n
    if mode == "sum":
        if float(s).is_integer():
            return _iterated_sum_integral(n, int(s), R)
        if n > QUADRATURE_MAX_EDGES:
            raise ValueError(
                f"sum mode with non-integer s supports at most "
                f"{QUADRATURE_MAX_EDGES} variables"
            )
        ((value, _),) = _gl_region(
            [(i,) for i in range(n)], (float(s),), [0.0] * n, [math.log(R)] * n,
            np.polynomial.legendre.leggauss(48),
        )
        return value
    raise ValueError(f"unknown mode {mode!r}; expected 'product' or 'sum'")
