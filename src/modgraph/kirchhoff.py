"""The Kirchhoff polynomial and cycle forms as exact values.

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
  C splits into the block-diagonal parts that its own nonzero pattern
  shows (a loop is a part of one entry, a bridge an empty part), and the
  polynomial is the product of the parts'.  It never enumerates spanning
  trees and never takes a GF(2) rank.

Either way the polynomial is a sum of distinct squarefree monomials with
coefficient 1, so `KirchhoffPolynomial` holds one bit mask per monomial;
each route builds its own, and the two meet only at ==.  `CycleForm`
holds C itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    CycleBasis,
    Multigraph,
    _components,
    betti,
    fundamental_cycle_basis,
    spanning_trees,
)


# subsets of cycle-matrix columns per batched elimination in psi_det
DET_BLOCK = 1 << 16


class PolynomialError(ValueError):
    """A malformed polynomial, cycle form or direction."""


@dataclass(frozen=True)
class KirchhoffPolynomial:
    """A sum of distinct squarefree monomials, each with coefficient 1.

    masks: one int per monomial, bit i set when x_i divides it (Python
    ints, so nvars is not bounded by a machine word); mask 0 is the
    constant 1, and no masks is the zero polynomial.  The constructor puts
    them in display order: higher degree first, and within a degree
    ascending lexicographic on the supports, which is graded
    lexicographic order with the leading term first.
    """

    nvars: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.nvars < 0:
            raise PolynomialError(f"negative variable count {self.nvars}")
        masks = list(self.masks)
        if len(set(masks)) != len(masks):
            raise PolynomialError("repeated monomial")
        if masks and (min(masks) < 0 or max(masks) >> self.nvars):
            raise PolynomialError(f"monomial outside {self.nvars} variables")
        # reversed binary digits put bit 0 first, so within a degree
        # descending strings are ascending supports (a shorter string sorts
        # as if padded with '0's); the stable second sort groups by degree
        masks.sort(key=lambda m: bin(m)[:1:-1], reverse=True)
        masks.sort(key=int.bit_count, reverse=True)
        object.__setattr__(self, "masks", tuple(masks))

    def terms(self) -> tuple[int, ...]:
        """The monomial masks, in display order."""
        return self.masks

    def degree(self) -> int:
        return max(map(int.bit_count, self.masks), default=0)

    def supports(self) -> list[tuple[int, ...]]:
        """The variable indices of each monomial, ascending, in display order."""
        return [_support(m) for m in self.masks]

    def __str__(self):
        if not self.masks:
            return "0"
        return " + ".join("*".join(f"x{i}" for i in support) or "1"
                          for support in self.supports())


def _support(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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
        if self.nvars < 0:
            raise PolynomialError(f"negative variable count {self.nvars}")
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
    if len(basis.cycles) != betti(g):
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


def psi_det(form: CycleForm) -> KirchhoffPolynomial:
    """Determinant of a cycle form by Cauchy-Binet over its cycle matrix.

    A cycle form is C X C^T for the b x e signed cycle matrix C and
    X = diag(x), so det = sum over b-subsets S of the columns of
    det(C_S)^2 x^S (Kirchhoff's theorem; Bogner & Weinzierl, "Feynman graph
    polynomials", arXiv:1002.3458).  C is taken from the form as an int8
    array, one row per variable; a zero row makes every det(C_S) zero.
    The columns split into the classes whose row supports overlap
    (`graphs._components` reads only the supports): over them C is block
    diagonal, so det(C_S) is nonzero exactly when S meets each part in a
    nonsingular subset of its rows' count, and the polynomial is the
    product of the parts' polynomials in disjoint variables.  A loop is a
    1 x 1 part, so its variable divides every term, and a zero column (a
    bridge) is an empty part.  Each part's subsets are decided by
    `_minors`, in batches of int8 elimination (`_nonsingular`): a
    separable 20-edge core of parts with 18 and 2 edges takes
    C(18, 9) + 2 subsets instead of C(20, 10).

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
        return KirchhoffPolynomial(nvars, (0,))
    cols = np.array(form.cycles, dtype=np.int8).T
    if not cols.any(axis=0).all():
        return KirchhoffPolynomial(nvars, ())
    weights = [1 << r for r in range(form.size)]
    masks = [0]
    for ids in _components([sum(itertools.compress(weights, col))
                            for col in cols.tolist()]):
        part = cols[list(ids)]
        part = part[:, part.any(axis=0)]
        if part.size:
            masks = [a | b for b in _minors(part, ids) for a in masks]
    return KirchhoffPolynomial(nvars, masks)


def _minors(mat: np.ndarray, variables) -> list[int]:
    """The masks of the nonsingular b-subsets of the rows of mat, a
    (variables x b) int8 block of C^T, one bit per variable.

    The subsets are decided in blocks of `DET_BLOCK` by `_nonsingular`,
    the columns with the fewest nonzeros first, so that most singular
    subsets leave the batch in the first steps.
    """
    b = mat.shape[1]
    mat = mat[:, np.argsort((mat != 0).sum(axis=0), kind="stable")]
    # object dtype: the masks are Python ints, however many variables
    bits = np.array([1 << v for v in variables], dtype=object)
    subsets = itertools.combinations(range(len(variables)), b)
    masks = []
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, DET_BLOCK)),
            dtype=np.intp).reshape(-1, b)
        if not block.size:
            break
        chosen = block[_nonsingular(mat[block])]
        masks += bits[chosen].sum(axis=1).tolist()
    return masks


def psi_trees(g: Multigraph) -> KirchhoffPolynomial:
    """Kirchhoff polynomial as the spanning-tree expansion.

    Sum over spanning trees of the squarefree monomial on the complement
    edge set; all coefficients +1.
    """
    bits = [1 << eid for eid in range(g.n_edges)]
    full = sum(bits)
    masks = []
    for tree in spanning_trees(g):
        cotree = full
        for eid in tree:
            cotree -= bits[eid]
        masks.append(cotree)
    return KirchhoffPolynomial(g.n_edges, masks)


def psi_from_graph(g: Multigraph) -> tuple[KirchhoffPolynomial, KirchhoffPolynomial]:
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
    grid = [float(t) for t in t_grid]
    if not all(map(math.isfinite, direction + grid)):
        raise PolynomialError("direction and t_grid entries must be finite")
    if any(x <= 0 for x in direction):
        raise PolynomialError("direction must be strictly positive")
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
