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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Multigraph, bridges
from .kirchhoff import IntPolynomial, psi_trees

PROBE_MAX_EDGES = 6
QUADRATURE_MAX_EDGES = 4
DEFAULT_SEED = 53771
DEFAULT_GRID = (
    math.exp(4.0),
    math.exp(6.0),
    math.exp(8.0),
    math.exp(10.0),
)


@dataclass(frozen=True)
class ProbeConfig:
    s: float
    r_grid: tuple[float, ...] = DEFAULT_GRID
    samples: int = 100_000
    seed: int = DEFAULT_SEED
    method: str = "monte_carlo"  # or "tensor_quadrature"
    nodes: int = 32  # Gauss-Legendre nodes per axis for quadrature

    def __post_init__(self):
        if not math.isfinite(self.s) or self.s <= 0:
            raise ValueError(f"s must be a positive finite number, got {self.s!r}")
        if self.method not in ("monte_carlo", "tensor_quadrature"):
            raise ValueError(f"unknown probe method {self.method!r}")
        grid = tuple(float(r) for r in self.r_grid)
        object.__setattr__(self, "r_grid", grid)
        if len(grid) < 3:
            raise ValueError("r_grid needs at least 3 entries for a verdict")
        if any(r < math.e for r in grid):
            raise ValueError("every grid radius must be >= e (so ln >= 1)")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise ValueError("r_grid must be strictly increasing")
        if self.method == "monte_carlo" and self.samples < 1000:
            raise ValueError("Monte Carlo needs at least 1000 samples per box")


@dataclass(frozen=True)
class GrowthVerdict:
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    increments: tuple[float, ...]
    ratios: tuple[float, ...]
    verdict: str  # "saturating" | "diverging" | "inconclusive"
    decay_ratio: float


def _term_supports(psi: IntPolynomial) -> list[tuple[int, ...]]:
    supports = []
    for exps, coeff in psi.sorted_terms():
        if coeff != 1:
            raise RuntimeError("Kirchhoff polynomial with non-unit coefficient")
        supports.append(tuple(i for i, p in enumerate(exps) if p))
    return supports


def _psi_values(supports, log_points: np.ndarray) -> np.ndarray:
    y = np.exp(log_points)
    acc = np.zeros(log_points.shape[0])
    for cols in supports:
        acc += np.prod(y[:, cols], axis=1)
    return acc


def _integrand(supports, s: float, u: np.ndarray) -> np.ndarray:
    # f(u) = exp(sum u) * psi(exp(u))^(-s) on the log-coordinate box
    vals = _psi_values(supports, u)
    if np.any(vals <= 0):
        raise RuntimeError(
            "Kirchhoff polynomial evaluated non-positive on the positive "
            "orthant; impossible for a connected bridgeless graph"
        )
    return np.exp(u.sum(axis=1)) * vals ** (-s)


def _strata_per_axis(dim: int) -> int:
    return max(1, int(round(256 ** (1.0 / dim))))


def _mc_region(supports, s, lo, hi, samples, seed, region_index):
    """Stratified Monte Carlo estimate of one log-coordinate box.

    Per-stratum seeding keeps the estimate reproducible for a given seed
    regardless of evaluation order or worker count.
    """
    dim = len(lo)
    splits = _strata_per_axis(dim)
    n_strata = splits**dim
    per = max(2, samples // n_strata)
    widths = [(h - l) / splits for l, h in zip(lo, hi)]
    total = 0.0
    var_total = 0.0
    for stratum in range(n_strata):
        cell_lo = []
        cell_hi = []
        idx = stratum
        for d in range(dim):
            k = idx % splits
            idx //= splits
            cell_lo.append(lo[d] + k * widths[d])
            cell_hi.append(lo[d] + (k + 1) * widths[d])
        vol = math.prod(h - l for l, h in zip(cell_lo, cell_hi))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(region_index, stratum)))
        )
        u = rng.uniform(cell_lo, cell_hi, size=(per, dim))
        f = _integrand(supports, s, u)
        total += vol * float(f.mean())
        var_total += vol * vol * float(f.var(ddof=1)) / per
    return total, math.sqrt(var_total)


def _gl_region(supports, s, lo, hi, nodes):
    """Tensor Gauss-Legendre estimate of one log-coordinate box."""
    dim = len(lo)
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = []
    weights = []
    for d in range(dim):
        half = (hi[d] - lo[d]) / 2.0
        mid = (hi[d] + lo[d]) / 2.0
        axes.append(mid + half * x)
        weights.append(half * w)
    grids = np.meshgrid(*axes, indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    f = _integrand(supports, s, u)
    wgrid = np.meshgrid(*weights, indexing="ij")
    wprod = np.ones_like(f)
    for g in wgrid:
        wprod *= g.ravel()
    return float(np.sum(f * wprod)), 0.0


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


def truncated_J(g: Multigraph, cfg: ProbeConfig) -> GrowthVerdict:
    """Estimate F(R) over the grid and classify its growth.

    The graph must be bridgeless (contract bridges first; bridge variables
    only contribute bounded positive factors).  Increment estimates come
    from integrating each shell between consecutive boxes directly, so the
    reported F values are automatically nondecreasing in R.
    """
    if bridges(g):
        raise ValueError("probe needs a bridgeless graph; contract bridges first")
    e = g.n_edges
    if e > PROBE_MAX_EDGES:
        raise ValueError(f"probe supports at most {PROBE_MAX_EDGES} edges, got {e}")
    if cfg.method == "tensor_quadrature" and e > QUADRATURE_MAX_EDGES:
        raise ValueError(
            f"tensor quadrature supports at most {QUADRATURE_MAX_EDGES} edges"
        )
    supports = _term_supports(psi_trees(g))
    logs = [math.log(r) for r in cfg.r_grid]

    regions: list[tuple[list[float], list[float]]] = [([0.0] * e, [logs[0]] * e)]
    shell_of: list[int] = [0]  # region index -> grid index the region feeds
    for k in range(len(logs) - 1):
        for lo, hi in _shell_slabs(logs[k], logs[k + 1], e):
            regions.append((lo, hi))
            shell_of.append(k + 1)

    piece = [0.0] * len(logs)
    piece_var = [0.0] * len(logs)
    for ridx, (lo, hi) in enumerate(regions):
        if cfg.method == "monte_carlo":
            n = cfg.samples if shell_of[ridx] == 0 else max(1000, cfg.samples // e)
            est, err = _mc_region(supports, cfg.s, lo, hi, n, cfg.seed, ridx)
        else:
            est, err = _gl_region(supports, cfg.s, lo, hi, cfg.nodes)
        piece[shell_of[ridx]] += est
        piece_var[shell_of[ridx]] += err * err

    values = []
    stderrs = []
    run = 0.0
    var_run = 0.0
    for k in range(len(logs)):
        run += piece[k]
        var_run += piece_var[k]
        values.append(run)
        stderrs.append(math.sqrt(var_run))
    increments = tuple(piece[1:])
    inc_errs = tuple(math.sqrt(v) for v in piece_var[1:])
    ratios = tuple(
        increments[i + 1] / increments[i] for i in range(len(increments) - 1)
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


def _gl_sum_integral(n: int, s: float, R: float, nodes: int = 48) -> float:
    """Gauss-Legendre quadrature of the sum-mode integral in log coordinates."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = math.log(R) / 2.0
    u = half + half * x
    wu = half * w
    axes = np.meshgrid(*([u] * n), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    y = np.exp(pts)
    f = y.sum(axis=1) ** (-s) * y.prod(axis=1)
    wax = np.meshgrid(*([wu] * n), indexing="ij")
    wprod = np.ones_like(f)
    for g in wax:
        wprod *= g.ravel()
    return float(np.sum(f * wprod))


def model_integral(n: int, mode: str, s: float, R: float) -> float:
    """Model integrals calibrating the growth verdicts.

    mode "product": the integral of (y_1*...*y_n)^(-s) over [1, R]^n, i.e.
    the n-th power of a one-dimensional closed form; converges for s > 1.
    mode "sum": the integral of (y_1+...+y_n)^(-s) over [1, R]^n, exact by
    iterated antiderivatives for integer s, Gauss-Legendre quadrature
    otherwise; converges for s > n and diverges at s = n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > PROBE_MAX_EDGES:
        raise ValueError(f"model integrals support at most {PROBE_MAX_EDGES} variables")
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
        return _gl_sum_integral(n, float(s), R)
    raise ValueError(f"unknown mode {mode!r}; expected 'product' or 'sum'")
