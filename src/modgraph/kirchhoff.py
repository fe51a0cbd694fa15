"""Exact sparse integer polynomials and the Kirchhoff polynomial.

The Kirchhoff (first Symanzik) polynomial of a connected multigraph is
computed two independent ways: as the determinant of the cycle intersection
form, and as the sum over spanning trees of the complement monomials.  Both
routes are exact over the integers; agreement of the two is a standing
cross-check used throughout the package.
"""

from __future__ import annotations

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


class PolynomialError(ValueError):
    """Dimension mismatch or invalid polynomial operation."""


def _grlex_key(item):
    exps, _ = item
    return (sum(exps), exps)


class IntPolynomial:
    """Sparse multivariate polynomial over the integers.

    Terms map dense exponent tuples (length nvars) to nonzero integer
    coefficients.  Instances are immutable by convention; all arithmetic
    returns new polynomials with exact arbitrary-precision coefficients.
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

    @classmethod
    def variable(cls, nvars: int, i: int) -> "IntPolynomial":
        if not 0 <= i < nvars:
            raise PolynomialError(f"variable index {i} out of range")
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, support, coeff: int = 1) -> "IntPolynomial":
        exps = [0] * nvars
        for i in support:
            exps[i] += 1
        return cls(nvars, {tuple(exps): coeff})

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

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def variables_used(self) -> frozenset[int]:
        return frozenset(
            i for exps in self._terms for i in range(self.nvars) if exps[i]
        )

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

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial.zero(self.nvars)
            return self._wrap({e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return self._wrap(out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial.constant(self.nvars, other)
        if not isinstance(other, IntPolynomial):
            raise PolynomialError(f"cannot combine with {type(other).__name__}")
        if other.nvars != self.nvars:
            raise PolynomialError("variable-count mismatch")
        return other

    def _wrap(self, data: dict) -> "IntPolynomial":
        p = IntPolynomial.__new__(IntPolynomial)
        p.nvars = self.nvars
        p._terms = data
        p._key = None
        return p

    def divexact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division; raises PolynomialError if the division has a remainder."""
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise PolynomialError("division by zero polynomial")
        if self.is_zero:
            return IntPolynomial.zero(self.nvars)
        dlead = max(divisor._terms.items(), key=_grlex_key)
        dexp, dc = dlead
        rem = dict(self._terms)
        out: dict[tuple[int, ...], int] = {}
        while rem:
            rexp, rc = max(rem.items(), key=_grlex_key)
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(x < 0 for x in qexp) or rc % dc:
                raise PolynomialError("inexact polynomial division")
            qc = rc // dc
            out[qexp] = out.get(qexp, 0) + qc
            for e2, c2 in divisor._terms.items():
                key = tuple(a + b for a, b in zip(qexp, e2))
                s = rem.get(key, 0) - qc * c2
                if s:
                    rem[key] = s
                elif key in rem:
                    del rem[key]
        return self._wrap({e: c for e, c in out.items() if c})

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
    """Symmetric b x b matrix of linear forms in the edge variables."""

    nvars: int
    entries: tuple[tuple[IntPolynomial, ...], ...]

    def __post_init__(self):
        b = len(self.entries)
        for row in self.entries:
            if len(row) != b:
                raise PolynomialError("cycle form must be square")
            for p in row:
                if p.nvars != self.nvars:
                    raise PolynomialError("entry variable count mismatch")
        for i in range(b):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise PolynomialError("cycle form must be symmetric")

    @property
    def size(self) -> int:
        return len(self.entries)


def cycle_form(g: Multigraph, basis: CycleBasis) -> CycleForm:
    """Intersection form of a cycle basis: entry (i,j) = sum_e c_i[e]*c_j[e]*x_e."""
    e = g.n_edges
    b = betti(g)
    if len(basis.cycles) != b or any(len(row) != e for row in basis.cycles):
        raise PolynomialError("cycle basis does not match the graph")
    rows = basis.cycles
    entries = []
    for i in range(b):
        line = []
        for j in range(b):
            terms = {}
            for k in range(e):
                c = rows[i][k] * rows[j][k]
                if c:
                    exps = [0] * e
                    exps[k] = 1
                    terms[tuple(exps)] = c
            line.append(IntPolynomial(e, terms))
        entries.append(tuple(line))
    return CycleForm(e, tuple(entries))


def _det_cofactor(rows: list[list[IntPolynomial]], nvars: int) -> IntPolynomial:
    n = len(rows)
    if n == 0:
        return IntPolynomial.constant(nvars, 1)
    if n == 1:
        return rows[0][0]
    acc = IntPolynomial.zero(nvars)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det_cofactor(minor, nvars)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def psi_det(form: CycleForm) -> IntPolynomial:
    """Exact determinant of a cycle form.

    Cofactor expansion for size <= 4; Bareiss fraction-free elimination with
    exact polynomial division above that (no rational-function intermediates).
    """
    b = form.size
    nvars = form.nvars
    if b <= 4:
        return _det_cofactor([list(row) for row in form.entries], nvars)
    m = [list(row) for row in form.entries]
    sign = 1
    prev = IntPolynomial.constant(nvars, 1)
    for k in range(b - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, b):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return IntPolynomial.zero(nvars)
        for i in range(k + 1, b):
            for j in range(k + 1, b):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).divexact(prev)
            m[i][k] = IntPolynomial.zero(nvars)
        prev = m[k][k]
    det = m[b - 1][b - 1]
    return det if sign == 1 else -det


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
    out = []
    for t in grid:
        point = [t * x for x in direction]
        mat = np.array(
            [[p.evaluate(point) for p in row] for row in form.entries], dtype=float
        )
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
