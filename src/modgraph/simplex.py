"""Exact rational simplex for small covering LPs.

Solves  min c.x  subject to  A x >= b, x >= 0  entirely in Fractions.
Two-phase tableau method with Bland's rule, so termination is guaranteed
even on degenerate problems.  `minimize` also returns an optimal dual y
(max b.y subject to A^T y <= c, y >= 0): y_i is the final reduced cost of
the surplus column of row i, whether or not that row was flipped to make
its right-hand side nonnegative.  Sized for desk-scale instances: tens of
constraints and of variables, as in the column-generation master of the
covering LP (at most 20 rows; 31 columns on the 19-edge cap core).
"""

from __future__ import annotations

from fractions import Fraction


class InfeasibleError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = Fraction(1) / piv
    tab[row] = [x * inv if x else x for x in tab[row]]
    prow = tab[row]
    for r, line in enumerate(tab):
        if r == row:
            continue
        factor = line[col]
        if factor:
            # Tableau rows are mostly zeros; skip the Fraction arithmetic.
            tab[r] = [a - factor * b if b else a for a, b in zip(line, prow)]
    basis[row] = col


def _run_simplex(tab, basis, ncols):
    # tab rows: constraints; last list entry of each row is the RHS;
    # the final row is the objective (minimize), reduced costs in place.
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)  # Bland
        if col is None:
            return
        best = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best:
                    best = ratio
        if best is None:
            raise UnboundedError("objective unbounded below")
        # Bland tie-break: smallest basis index leaves.
        row = min(
            (r for r in range(len(tab) - 1)
             if tab[r][col] > 0 and tab[r][-1] / tab[r][col] == best),
            key=lambda r: basis[r],
        )
        _pivot(tab, basis, row, col)


def minimize(c, A, b):
    """Exact optimum of min c.x, A x >= b, x >= 0, with an optimal dual.

    Returns (value, x, y) as Fractions, with y >= 0, A^T y <= c and
    b.y = value.  Raises InfeasibleError or UnboundedError when the LP has
    no optimum.
    """
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")

    # Standard form: A x - s + a = b with b >= 0 (rows flipped as needed).
    # Columns: x (n) | surplus (m) | artificial (m) | rhs.
    ncols = n + 2 * m
    tab = []
    for i in range(m):
        row = list(A[i]) + [Fraction(0)] * (2 * m) + [b[i]]
        row[n + i] = Fraction(-1)
        if row[-1] < 0:
            row = [-x for x in row]
        row[n + m + i] = Fraction(1)
        tab.append(row)
    basis = [n + m + i for i in range(m)]

    # Phase 1: minimize the artificial sum.
    phase1 = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        phase1[n + m + i] = Fraction(1)
    tab.append(phase1)
    for i in range(m):
        # Make reduced costs of the basic artificials zero.
        tab[-1] = [x - y for x, y in zip(tab[-1], tab[i])]
    _run_simplex(tab, basis, ncols)
    if tab[-1][-1] != 0:
        raise InfeasibleError("no feasible point")
    tab.pop()

    # Drive any artificial still basic (at zero level) out of the basis.
    for r in range(m):
        if basis[r] >= n + m:
            col = next((j for j in range(n + m) if tab[r][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, r, col)

    # Phase 2 on the original objective; artificial columns are frozen out.
    obj = c + [Fraction(0)] * (2 * m) + [Fraction(0)]
    tab.append(obj)
    for r in range(m):
        factor = tab[-1][basis[r]]
        if factor:
            tab[-1] = [a - factor * bb for a, bb in zip(tab[-1], tab[r])]
    _run_simplex(tab, basis, n + m)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    # Surplus column i is -e_i, or +e_i in a flipped row, whose tableau
    # dual is -y_i; either way its reduced cost is y_i.
    y = tab[-1][n:n + m]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x, y
