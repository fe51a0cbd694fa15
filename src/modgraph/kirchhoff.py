"""The Kirchhoff polynomial and cycle forms as exact integer values.

The Kirchhoff (first Symanzik) polynomial of a connected multigraph is
computed two independent ways, both exact over the integers; agreement of
the two is a standing cross-check used throughout the package.

* `psi_trees` sums, over the spanning trees, the monomial of the edges
  outside the tree.
* `psi_det` is the determinant of the cycle intersection form C X C^T,
  taken by Cauchy-Binet: the sum over b-subsets S of the edges of
  det(C_S)^2 x^S, where C is the b x e signed cycle matrix.  C is totally
  unimodular (a network matrix), so every det(C_S) is 0 or +-1, and
  batched integer elimination decides it in int8 without overflow: every
  intermediate entry is itself a minor divided by a minor of +-1.
  It never enumerates spanning trees and never takes a GF(2) rank.

`CycleForm` holds C itself; `IntPolynomial` holds both polynomials as
exact values and has no ring arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    CycleBasis,
    Multigraph,
    betti,
    fundamental_cycle_basis,
    spanning_trees,
)


# subsets of cycle-matrix columns per batched elimination in psi_det
DET_BLOCK = 1 << 16


class PolynomialError(ValueError):
    """A malformed polynomial, cycle form, point or direction."""


def _grlex_key(item):
    exps, _ = item
    return (sum(exps), exps)


class IntPolynomial:
    """An exact sparse integer polynomial, held as a value, not a ring.

    Terms map dense exponent tuples (length nvars) to nonzero integer
    coefficients.  Instances are immutable by convention and have no
    arithmetic: they are read term by term, compared, hashed, evaluated
    and printed.
    """

    __slots__ = ("nvars", "_terms", "_key")

    def __init__(self, nvars: int, terms=()):
        self.nvars = int(nvars)
        data: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(int(x) for x in exps)
            if len(exps) != self.nvars:
                raise PolynomialError(
                    f"exponent vector length {len(exps)} != nvars {self.nvars}"
                )
            if any(x < 0 for x in exps):
                raise PolynomialError("negative exponent")
            coeff = int(coeff)
            if coeff:
                c = data.get(exps, 0) + coeff
                if c:
                    data[exps] = c
                elif exps in data:
                    del data[exps]
        self._terms = data
        self._key = None

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order, leading term first."""
        return sorted(self._terms.items(), key=_grlex_key, reverse=True)

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def _canonical(self):
        if self._key is None:
            self._key = tuple(self.sorted_terms())
        return self._key

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, self._canonical()))

    @staticmethod
    def _of(nvars: int, data: dict) -> "IntPolynomial":
        """A polynomial on a dict of nonzero terms, taken without checks."""
        p = IntPolynomial.__new__(IntPolynomial)
        p.nvars = nvars
        p._terms = data
        p._key = None
        return p

    def evaluate(self, point) -> float:
        """Numeric evaluation; fsum keeps the accumulation well conditioned."""
        point = list(point)
        if len(point) != self.nvars:
            raise PolynomialError(
                f"point length {len(point)} != nvars {self.nvars}"
            )
        vals = []
        for exps, coeff in self._terms.items():
            term = float(coeff)
            for x, p in zip(point, exps):
                if p:
                    term *= x**p
            vals.append(term)
        return math.fsum(vals)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, p in enumerate(exps):
                if p == 1:
                    factors.append(f"x{i}")
                elif p > 1:
                    factors.append(f"x{i}^{p}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPolynomial({self.nvars}, {self!s})"


@dataclass(frozen=True)
class CycleForm:
    """The cycle intersection form C X C^T, held as its signed cycle matrix.

    cycles: the b rows of C, each with nvars entries in {-1, 0, 1}, and
    X = diag(x_0, ..., x_{nvars-1}); entry (i, j) of the form is
    sum_e C[i][e] * C[j][e] * x_e, so the form is symmetric by construction.
    """

    nvars: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.cycles:
            if len(row) != self.nvars:
                raise PolynomialError(
                    f"cycle row length {len(row)} != nvars {self.nvars}")
            if any(c not in (-1, 0, 1) for c in row):
                raise PolynomialError("cycle entries must lie in {-1, 0, 1}")

    @property
    def size(self) -> int:
        return len(self.cycles)


def cycle_form(g: Multigraph, basis: CycleBasis) -> CycleForm:
    """Intersection form of a cycle basis: entry (i,j) = sum_e c_i[e]*c_j[e]*x_e."""
    if len(basis.cycles) != betti(g) or any(
            len(row) != g.n_edges for row in basis.cycles):
        raise PolynomialError("cycle basis does not match the graph")
    return CycleForm(g.n_edges, basis.cycles)


def _nonsingular(mats: np.ndarray) -> np.ndarray:
    """Indices of the nonsingular matrices in a batch of square int8
    matrices whose minors all lie in {-1, 0, 1}.

    Gaussian elimination with a row pivot per matrix; a matrix leaves the
    batch at the first column with no pivot.  After step k every entry is
    a minor through the leading k x k block divided by that block's minor,
    the product of k pivots of +-1, so every entry stays in {-1, 0, 1} and
    int8 is exact.  Raises PolynomialError if an entry leaves that range:
    it is a minor of +-2, so the matrices are not totally unimodular.
    """
    n, b, _ = mats.shape
    index = np.arange(n)
    for k in range(b):
        nonzero = mats[:, k:, k] != 0
        live = nonzero.any(axis=1)
        if not live.all():
            mats, index, nonzero = mats[live], index[live], nonzero[live]
        batch = np.arange(len(index))
        pivot_row = k + nonzero.argmax(axis=1)
        row = mats[batch, pivot_row]
        mats[batch, pivot_row] = mats[:, k]
        # a pivot is +-1, so dividing by it is multiplying by it
        factor = mats[:, k + 1:, k] * row[:, None, k]
        rest = mats[:, k + 1:, k + 1:]
        rest -= factor[:, :, None] * row[:, None, k + 1:]
        if rest.size and (rest.max() > 1 or rest.min() < -1):
            raise PolynomialError("cycle matrix is not totally unimodular")
    return index


def psi_det(form: CycleForm) -> IntPolynomial:
    """Determinant of a cycle form by Cauchy-Binet over its cycle matrix.

    A cycle form is C X C^T for the b x e signed cycle matrix C and
    X = diag(x), so det = sum over b-subsets S of the columns of
    det(C_S)^2 x^S (Kirchhoff's theorem; Bogner & Weinzierl, "Feynman graph
    polynomials", arXiv:1002.3458).  C is taken from the form as an int8
    array, one row per variable.  Zero columns (bridges) are dropped; a
    column that is the only nonzero entry of some row (a loop, for one)
    lies in every nonsingular S, so its variable is factored out and the
    row and column deleted, repeatedly.  The remaining subsets are
    decided in blocks of `DET_BLOCK` by batched int8 elimination
    (`_nonsingular`), the rows of C with the fewest nonzeros first, so that
    most singular subsets leave the batch in the first steps.

    C is a network matrix, hence totally unimodular: every det(C_S) is 0
    or +-1, so every coefficient is 1, and every elimination intermediate
    is a minor divided by a minor of +-1, so int8 is exact and cannot
    overflow.  A caller's C that is not totally unimodular is refused by
    `_nonsingular` with PolynomialError.  Spanning trees are never
    enumerated and no GF(2) rank is taken, which keeps this route
    independent of `psi_trees`.
    """
    nvars = form.nvars
    if form.size == 0:
        return IntPolynomial.constant(nvars, 1)
    cols = np.ascontiguousarray(np.array(form.cycles, dtype=np.int8).T)
    keep = [v for v in range(nvars) if cols[v].any()]
    rows = list(range(form.size))
    factored = []
    while rows:
        sub = cols[np.ix_(keep, rows)] != 0
        counts = sub.sum(axis=0)
        if not counts.all():
            return IntPolynomial.zero(nvars)
        single = np.flatnonzero(counts == 1)
        if not single.size:
            break
        i = single[0]
        factored.append(keep.pop(int(np.flatnonzero(sub[:, i])[0])))
        del rows[i]
    b = len(rows)
    base = np.zeros(nvars, dtype=np.int8)
    base[factored] = 1
    if b == 0:
        return IntPolynomial._of(nvars, {tuple(base.tolist()): 1})
    mat = cols[np.ix_(keep, rows)]
    mat = mat[:, np.argsort((mat != 0).sum(axis=0), kind="stable")]
    keep = np.array(keep)
    subsets = itertools.combinations(range(len(keep)), b)
    terms = {}
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, DET_BLOCK)),
            dtype=np.intp).reshape(-1, b)
        if not block.size:
            break
        chosen = block[_nonsingular(mat[block])]
        exps = np.repeat(base[None, :], len(chosen), axis=0)
        exps[np.arange(len(chosen))[:, None], keep[chosen]] = 1
        terms.update(dict.fromkeys(map(tuple, exps.tolist()), 1))
    return IntPolynomial._of(nvars, terms)


def psi_trees(g: Multigraph) -> IntPolynomial:
    """Kirchhoff polynomial as the spanning-tree expansion.

    Sum over spanning trees of the squarefree monomial on the complement
    edge set; all coefficients +1.
    """
    e = g.n_edges
    all_edges = frozenset(range(e))
    terms: dict[tuple[int, ...], int] = {}
    for tree in spanning_trees(g):
        exps = [0] * e
        for eid in all_edges - tree:
            exps[eid] = 1
        terms[tuple(exps)] = 1
    return IntPolynomial(e, terms)


def psi_from_graph(g: Multigraph) -> tuple[IntPolynomial, IntPolynomial]:
    """Both routes to the Kirchhoff polynomial: (determinant, tree expansion)."""
    form = cycle_form(g, fundamental_cycle_basis(g))
    return psi_det(form), psi_trees(g)


def inverse_decay_check(form: CycleForm, direction, t_grid) -> list[float]:
    """Max absolute entry of the inverse cycle form along a positive ray.

    For each t in t_grid the form is evaluated at x = t*direction and
    inverted numerically; by linear homogeneity the result scales exactly
    as 1/t, and tends to 0 as t grows.  Double precision with a condition
    number guard; diagnostic only, not a certificate.
    """
    direction = [float(x) for x in direction]
    if len(direction) != form.nvars:
        raise PolynomialError("direction length must equal the edge count")
    if any(x <= 0 for x in direction):
        raise PolynomialError("direction must be strictly positive")
    grid = [float(t) for t in t_grid]
    if any(t < 1 for t in grid) or any(
        grid[i] >= grid[i + 1] for i in range(len(grid) - 1)
    ):
        raise PolynomialError("t_grid must be increasing with entries >= 1")
    cycles = np.array(form.cycles, dtype=float).reshape(form.size, form.nvars)
    ray = np.array(direction)
    out = []
    for t in grid:
        mat = (cycles * (t * ray)) @ cycles.T  # C X C^T at x = t*direction
        if mat.size == 0:
            out.append(0.0)
            continue
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > 1e12:
            raise RuntimeError(
                f"cycle form numerically singular at t={t} (cond={cond:.3g}); "
                "this cannot happen for a connected bridgeless graph"
            )
        inv = np.linalg.inv(mat)
        out.append(float(np.max(np.abs(inv))))
    return out
