"""Exact simplex for small covering LPs, by integer-preserving pivoting.

Solves  min c.x  subject to  A x >= b, x >= 0  exactly, for costs c >= 0,
through its dual  max b.y  subject to  A^T y <= c, y >= 0.  With c >= 0
the slack basis y = 0 is dual feasible, so one phase of the tableau
method with Bland's rule starts there, and termination is guaranteed even
on degenerate problems.  The tableau has one row per primal variable and
the columns y | slack | rhs.  An entering column with no positive entry
means the dual is unbounded, so the primal is infeasible.  At the optimum
y is read off the basis and x_j is the final reduced cost of slack column
j.  c >= 0 bounds the primal below by 0, so it is never unbounded.

The tableau holds Python ints over one common positive denominator d, so
entry T[i][j] stands for T[i][j]/d; no Fraction is built while pivoting.
Pivoting is fraction-free (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
Math. Comp. 22, 1968): a pivot on p = T[r][s] keeps row r, replaces every
other row i by (p*T[i] - T[i][s]*T[r]) // d, and sets d = p.  The
divisions are exact: d is the determinant of the current basis (its
columns in row order), and every entry is a minor of the starting integer
tableau.  The ratio test picks only positive pivots, so d stays positive.
Ratios are compared by cross-multiplication, so the pivot sequence is the
one the same method takes over Fractions.

Fraction data is scaled to integers once: A and b by the lcm L of their
denominators, c by the lcm K of its denominators.  The integer tableau
then solves for Y = K*y/L and slacks scaled by K, both positive
rescalings, so every entering column, ratio comparison and tie is
unchanged; y_i = L*Y_i/(K*d) with Y_i the rhs entry of the row where
column i is basic, the value is the objective entry over K*d, and x is
read off as is.  Sized
for desk-scale instances: tens of constraints and of variables, as in
the column-generation master of the covering LP (at most 20 constraints;
32 variables, so 32 tableau rows, on the 19-edge cap core).
"""

from __future__ import annotations

import math
from fractions import Fraction


class InfeasibleError(ValueError):
    pass


def _integers(rows):
    """Rows of exact rationals times the lcm of all their denominators, as
    Python ints, and that lcm."""
    rows = [[v if isinstance(v, int) else Fraction(v) for v in row]
            for row in rows]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row]
            for row in rows], scale


def _pivot(tab, basis, row, col, d):
    """Pivot on the positive entry tab[row][col] over the common
    denominator d; returns the new denominator."""
    prow = tab[row]
    p = prow[col]
    for r, line in enumerate(tab):
        if r == row:
            continue
        factor = line[col]
        if factor:
            tab[r] = [(p * a - factor * b) // d
                      for a, b in zip(line, prow)]
        else:
            tab[r] = [p * a // d for a in line]
    basis[row] = col
    return p


def minimize(c, A, b):
    """Exact optimum of min c.x, A x >= b, x >= 0, with an optimal dual.

    Returns (value, x, y) as Fractions, with y >= 0, A^T y <= c and
    b.y = value.  Raises ValueError on a negative cost and InfeasibleError
    when no x is feasible.
    """
    c, A, b = list(c), [list(row) for row in A], list(b)
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    (cost,), k = _integers([c])
    if any(v < 0 for v in cost):
        raise ValueError("costs must be nonnegative")
    (*A, b), scale = _integers(A + [b])

    # Row j: column j of A, slack j, rhs c_j; the last row holds the
    # reduced costs of max b.y (as min -b.y) and the value b.y.
    ncols = m + n
    tab = [[A[i][j] for i in range(m)] + [0] * n + [cost[j]]
           for j in range(n)]
    for j in range(n):
        tab[j][m + j] = 1
    tab.append([-v for v in b] + [0] * (n + 1))
    basis = [m + j for j in range(n)]
    d = 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)  # Bland
        if col is None:
            break
        # Smallest ratio rhs/a over a > 0, ties to the smallest basis index.
        row = None
        for r in range(n):
            a = tab[r][col]
            if a <= 0:
                continue
            if row is not None:
                left, right = tab[r][-1] * best_a, best_rhs * a
                if left > right or (left == right and basis[r] > basis[row]):
                    continue
            row, best_rhs, best_a = r, tab[r][-1], a
        if row is None:
            raise InfeasibleError("no feasible point")
        d = _pivot(tab, basis, row, col, d)

    y = [Fraction(0)] * m
    for r in range(n):
        if basis[r] < m:
            y[basis[r]] = Fraction(scale * tab[r][-1], k * d)
    x = [Fraction(v, d) for v in tab[-1][m:ncols]]
    return Fraction(tab[-1][-1], k * d), x, y
