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
once, and sums each exponent's values block by block along numpy's
pairwise tree (see _gl_region, _PairwiseSum).  Memory is a few buffers of
one block, whatever the samples or rule: one Monte Carlo block holds at
most BLOCK_POINTS coordinates or one stratum, and the buffers (_Scratch)
are allocated once per truncated_J or model_integral call and reused by
every block of every region.
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
# (3 dimensions, 216 strata) and 205,760 coordinates (41,152 points in 5
# dimensions); in every dimension a stratum then takes a block of its own
MAX_SAMPLES = 10_000_000
# points per quadrature block (at least one row) and coordinates per Monte
# Carlo block (at least one stratum); bounds every block-sized buffer,
# whatever the samples or rule
BLOCK_POINTS = 1 << 16
QUADRATURE_MAX_EDGES = 4
# Gauss-Legendre nodes per axis of the probe's quadrature: 32^4 = 1 million
# points in blocks of BLOCK_POINTS, 0.5 MB per block buffer (model_integral's
# 48 nodes: 5.3 million points in one-row blocks of 48^3, 0.9 MB per buffer)
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


class _Scratch(dict):
    """Float64 buffers by name, shared by the blocks and regions of one
    truncated_J or model_integral call and written with out=, so no
    block-sized array is allocated per block.  Each region's kernel sets
    room, a bound on the points of its blocks; a buffer is allocated for
    room points at its first use, and room is largest in a call's first
    region (the regions of a quadrature share one grid, and a Monte Carlo
    probe's first region draws the most points per stratum), so each
    buffer is allocated once per call."""

    room = 0

    def take(self, name: str, points: int, width: int = 1) -> np.ndarray:
        """The first points * width values of the buffer called name."""
        buf = self.get(name)
        if buf is None or buf.size < points * width:
            buf = self[name] = np.empty(max(points, self.room) * width)
        return buf[:points * width]


def _fold(op, factors, buf: np.ndarray) -> np.ndarray:
    """((f_0 op f_1) op f_2) op ... over factors of one ndim that
    broadcast; a lone factor is returned as it is.  Each step that has the
    result's shape is written into a prefix of buf, in place after the
    first, so factors of one shape (a Monte Carlo block's) form no array;
    the steps before, over a quadrature grid's sparse axes, form arrays
    one axis short of it."""
    acc, *rest = factors
    if not rest:
        return acc
    shape = tuple(map(max, *(f.shape for f in factors)))
    out = buf[:math.prod(shape)].reshape(shape)
    for factor in rest:
        step = tuple(map(max, acc.shape, factor.shape))
        acc = op(acc, factor, out=out if step == shape else None)
    return acc


def _half(n: int) -> int:
    # where numpy's pairwise sum splits n > 128 values: a multiple of 8
    h = n // 2
    return h - h % 8


class _PairwiseSum:
    """float(np.sum(a)) of a float64 array a of m values, taken from
    consecutive parts of a, each added as it is produced.

    numpy sums a contiguous float64 array pairwise (pairwise_sum in its
    loops_utils.h.src): at most 128 values in eight interleaved lanes, more
    split at _half(n) into two halves summed alike.  Each node of that tree
    that lies within one part is summed there with np.sum, which runs the
    same tree on it; a node of at most 128 values that spans parts gathers
    them in a 128-value buffer.  total adds the node sums along the tree,
    so the m values are never held at once.
    """

    def __init__(self, m: int):
        self.m = m
        self.start = 0  # the index in a of the next part's first value
        self.sums = {}  # (offset, length) of a node -> its sum
        self.carry = np.empty(min(m, 128))

    def add(self, part: np.ndarray) -> None:
        self._visit(0, self.m, part)
        self.start += part.size

    def _visit(self, off: int, n: int, part: np.ndarray) -> None:
        start = self.start
        end = start + part.size
        if off + n <= start or end <= off:
            return
        if start <= off and off + n <= end:
            self.sums[off, n] = np.sum(part[off - start:off - start + n])
        elif n <= 128:
            lo, hi = max(off, start), min(off + n, end)
            self.carry[lo - off:hi - off] = part[lo - start:hi - start]
            if off + n <= end:
                self.sums[off, n] = np.sum(self.carry[:n])
        else:
            h = _half(n)
            self._visit(off, h, part)
            self._visit(off + h, n - h, part)

    def _node(self, off: int, n: int):
        s = self.sums.get((off, n))
        if s is None:
            h = _half(n)
            s = self._node(off, h) + self._node(off + h, n - h)
        return s

    def total(self) -> float:
        return float(self._node(0, self.m))


def _integrand(supports, s_values, usum: np.ndarray, ys, scratch: _Scratch,
               reduce) -> list:
    """reduce(f) for each s in s_values, in order, where
    f(u) = exp(sum u) * psi(exp(u))^(-s) on the log-coordinate box.

    usum is the 1-D coordinate sum of every point; ys holds one factor
    exp(u_d) per variable, each broadcasting to the points (flattened in C
    order), so the quadrature grid never materialises its coordinates.
    Each psi term is multiplied out over its support in the order of a
    row-wise np.prod.  psi, the term products, exp(sum u) and each f are
    written into scratch buffers of usum's length: psi and exp(sum u) once
    for all exponents, then each f is reduced before the next is formed,
    in the term products' buffer and the last in psi's place.
    """
    size = usum.shape[0]
    psi = scratch.take("psi", size)
    vals = psi.reshape(np.broadcast_shapes(*(y.shape for y in ys)))
    terms = (scratch.take("term", size) if max(map(len, supports)) > 1
             else None)
    for i, support in enumerate(supports):
        term = _fold(np.multiply, [ys[d] for d in support], terms)
        if i:
            vals += term
        else:  # copied, not aliased: a one-factor term is a view of ys
            np.copyto(vals, term)
    if psi.min() <= 0:
        raise RuntimeError(
            "Kirchhoff polynomial evaluated non-positive on the positive "
            "orthant; impossible for a connected bridgeless graph"
        )
    eu = np.exp(usum, out=scratch.take("exp", size))
    out = []
    for s in s_values[:-1]:
        f = scratch.take("term", size)  # the term products are done with
        np.copyto(f, psi)
        # the operator, so numpy picks the power kernel of psi ** (-s)
        f **= -s
        f *= eu
        out.append(reduce(f))
    psi **= -s_values[-1]
    psi *= eu
    out.append(reduce(psi))
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


def _mc_region(supports, s_values, lo, hi, samples, seed, region_index,
               scratch=None):
    """Stratified Monte Carlo estimates of one log-coordinate box, one
    (estimate, standard error) pair per exponent in s_values.

    Each stratum draws its points from its own stream, PCG64 seeded by
    SeedSequence(seed, spawn_key=(region_index, stratum)), so the estimate
    is reproducible for a given seed regardless of evaluation order or
    worker count; each stratum's PCG64 seeds itself from its _stream_states
    words.  Strata are evaluated in blocks of at most BLOCK_POINTS
    coordinates (points times dim) or one stratum, one integrand call per
    block for all exponents.  Each stratum draws its (per, dim) rows of the
    block's point-major buffer, which is mapped to its cells as
    cell_lo + span * r, the operations of Generator.uniform, into a
    variable-major (dim, count, per) buffer, one row of points per
    variable, whose rows are added left to right as numpy's row sum of the
    points does.  Both buffers and the integrand's are scratch ones,
    reused by every block.  Each stratum's mean and variance (numpy's mean
    and var(ddof=1)) enter each exponent's totals in stratum order, so the
    result does not depend on the block size or on the other exponents.
    """
    dim = len(lo)
    splits = _strata_per_axis(dim)
    n_strata = splits**dim
    per = max(2, samples // n_strata)
    block = max(1, BLOCK_POINTS // (per * dim))  # strata, by coordinates
    lo = np.asarray(lo, dtype=float)
    widths = (np.asarray(hi, dtype=float) - lo) / splits
    # digit d of a stratum's index in base `splits` is its cell along axis d
    k = np.arange(n_strata) // splits ** np.arange(dim)[:, None] % splits
    cell_lo = lo[:, None] + k * widths[:, None]
    span = lo[:, None] + (k + 1) * widths[:, None] - cell_lo
    vols = span.prod(axis=0)  # rows multiplied left to right, as math.prod
    words = np.ascontiguousarray(_stream_states(seed, region_index, range(n_strata)).T)
    means, variances = np.empty((2, len(s_values), n_strata))
    scratch = _Scratch() if scratch is None else scratch
    # no block has more points: BLOCK_POINTS // dim or one stratum, at most
    # all of them; it grows with per, so the first region's is the largest
    scratch.room = min(n_strata * per, max(per, BLOCK_POINTS // dim))

    def moments(f):  # numpy's mean and var(ddof=1) of each stratum; overwrites f
        f = f.reshape(-1, per)
        mean = f.sum(axis=1) / per
        np.square(np.subtract(f, mean[:, None], out=f), out=f)
        return mean, f.sum(axis=1) / (per - 1)

    for first in range(0, n_strata, block):
        count = min(block, n_strata - first)
        points = count * per
        u = scratch.take("draws", points, dim).reshape(count, per, dim)
        part = slice(first, first + count)
        for row, out in zip(words[part], u):
            np.random.Generator(np.random.PCG64(_StreamWords(row))).random(out=out)
        ys = scratch.take("ys", points, dim).reshape(dim, count, per)
        np.multiply(u.transpose(2, 0, 1), span[:, part, None], out=ys)
        ys += cell_lo[:, part, None]
        usum = scratch.take("usum", points).reshape(count, per)
        np.copyto(usum, ys[0])
        for d in range(1, dim):
            usum += ys[d]
        np.exp(ys, out=ys)
        stats = _integrand(supports, s_values, usum.ravel(), ys, scratch, moments)
        means[:, part], variances[:, part] = zip(*stats)
    # accumulate adds in stratum order, where np.sum would add pairwise
    totals = np.add.accumulate(vols * means, axis=1)[:, -1]
    errs = np.sqrt(np.add.accumulate(vols * vols * variances / per, axis=1)[:, -1])
    return list(zip(totals.tolist(), errs.tolist()))


def _gl_region(supports, s_values, lo, hi, rule, scratch=None):
    """Tensor Gauss-Legendre estimates of one log-coordinate box, one
    (estimate, 0.0) pair per exponent in s_values, from rule = (x, w), the
    nodes and weights of leggauss on [-1, 1].

    The grid is evaluated in blocks of leading-axis rows, at most
    BLOCK_POINTS points or one row, one integrand call per block for all
    exponents.  Each block slices the per-axis arrays: the coordinate sum
    is broadcast as ((u_0 + u_1) + u_2) + ..., the left-to-right order of a
    row sum, and exp runs once per axis node rather than once per point.
    Each block's weighted values of each exponent are added to that
    exponent's _PairwiseSum, so the estimate is float(np.sum) of the grid's
    values, bit for bit, whatever the block size, and every array is of a
    block's size or less: the scratch buffers of the coordinate sum, the
    weight products and the integrand's.
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
    scratch = _Scratch() if scratch is None else scratch
    scratch.room = min(rows, n) * row
    sums = [_PairwiseSum(n * row) for _ in s_values]
    for first in range(0, n, rows):
        part = slice(first, first + rows)
        points = min(rows, n - first) * row
        usum = _fold(np.add, [grid[0][part], *grid[1:]],
                     scratch.take("usum", points))
        wprod = _fold(np.multiply, [wgrid[0][part], *wgrid[1:]],
                      scratch.take("wprod", points)).ravel()
        adds = iter(sums)
        _integrand(supports, s_values, usum.ravel(), [ys[0][part], *ys[1:]],
                   scratch, lambda f: next(adds).add(np.multiply(f, wprod, out=f)))
    return [(part_sums.total(), 0.0) for part_sums in sums]


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
    scratch = _Scratch()
    # an overflow is reported below as a non-finite verdict, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for ridx, (lo, hi) in enumerate(regions):
            if cfg.method == "monte_carlo":
                n = cfg.samples if shell_of[ridx] == 0 else max(1000, cfg.samples // e)
                ests = _mc_region(supports, exponents, lo, hi, n, cfg.seed, ridx,
                                  scratch)
            else:
                ests = _gl_region(supports, exponents, lo, hi, rule, scratch)
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
