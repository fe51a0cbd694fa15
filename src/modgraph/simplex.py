"""Exact simplex for small covering LPs, by integer-preserving pivoting.

Solves  min c.x  subject to  A x >= b, x >= 0  exactly.  Two-phase tableau
method with Bland's rule, so termination is guaranteed even on degenerate
problems.  `minimize` also returns an optimal dual y (max b.y subject to
A^T y <= c, y >= 0): y_i is the final reduced cost of the surplus column of
row i, whether or not that row was flipped to make its right-hand side
nonnegative.

The tableau holds Python ints over one common positive denominator d, so
entry T[i][j] stands for T[i][j]/d; no Fraction is built while pivoting.
Pivoting is fraction-free (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
Math. Comp. 22, 1968): a pivot on p = T[r][s] keeps row r, replaces every
other row i by (p*T[i] - T[i][s]*T[r]) // d, and sets d = p.  The
divisions are exact: d is, up to one common sign, the determinant of the
current basis, and every entry is a minor of the starting integer
tableau.  A negative pivot, which only the step driving artificials out of
the basis can meet, negates every row to keep d positive.  Ratios are
compared by cross-multiplication, so the pivot sequence is the one the
same method takes over Fractions.

Fraction data is scaled to integers once: A and b by the lcm L of their
denominators, c by the lcm K of its denominators.  That rescales the
surplus and artificial variables by L and the objective by K, both
positive, so every entering column, ratio comparison and tie is unchanged;
x is read off as is and the dual as y_i = L*Y_i/(K*d), with Y_i the final
integer reduced cost of surplus column i.  Sized for desk-scale instances:
tens of constraints and of variables, as in the column-generation master
of the covering LP (at most 20 rows; 31 columns on the 19-edge cap core).
"""

from __future__ import annotations

import math
from fractions import Fraction


class InfeasibleError(ValueError):
    pass


class UnboundedError(ValueError):
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
    """Pivot on tab[row][col] over the common denominator d; returns the new
    denominator."""
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
    if p < 0:
        tab[:] = [[-a for a in line] for line in tab]
        p = -p
    return p


def _run_simplex(tab, basis, ncols, d):
    # tab rows: constraints; last list entry of each row is the RHS;
    # the final row is the objective (minimize), reduced costs in place.
    # Returns the final common denominator.
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)  # Bland
        if col is None:
            return d
        # Smallest ratio rhs/a over a > 0, ties to the smallest basis index.
        row = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a <= 0:
                continue
            if row is not None:
                left, right = tab[r][-1] * best_a, best_rhs * a
                if left > right or (left == right and basis[r] > basis[row]):
                    continue
            row, best_rhs, best_a = r, tab[r][-1], a
        if row is None:
            raise UnboundedError("objective unbounded below")
        d = _pivot(tab, basis, row, col, d)


def minimize(c, A, b):
    """Exact optimum of min c.x, A x >= b, x >= 0, with an optimal dual.

    Returns (value, x, y) as Fractions, with y >= 0, A^T y <= c and
    b.y = value.  Raises InfeasibleError or UnboundedError when the LP has
    no optimum.
    """
    c, A, b = list(c), [list(row) for row in A], list(b)
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    (cost,), k = _integers([c])
    (*A, b), scale = _integers(A + [b])

    # Standard form: A x - s + a = b with b >= 0 (rows flipped as needed).
    # Columns: x (n) | surplus (m) | artificial (m) | rhs.
    ncols = n + 2 * m
    tab = []
    for i in range(m):
        row = A[i] + [0] * (2 * m) + [b[i]]
        row[n + i] = -1
        if row[-1] < 0:
            row = [-x for x in row]
        row[n + m + i] = 1
        tab.append(row)
    basis = [n + m + i for i in range(m)]

    # Phase 1: minimize the artificial sum; the denominator starts at 1.
    phase1 = [0] * (ncols + 1)
    for i in range(m):
        phase1[n + m + i] = 1
    for i in range(m):
        # Make reduced costs of the basic artificials zero.
        phase1 = [x - y for x, y in zip(phase1, tab[i])]
    tab.append(phase1)
    d = _run_simplex(tab, basis, ncols, 1)
    if tab[-1][-1] != 0:
        raise InfeasibleError("no feasible point")
    tab.pop()
    # Artificial columns are never read again.
    tab = [line[:n + m] + line[-1:] for line in tab]

    # Drive any artificial still basic (at zero level) out of the basis.
    for r in range(m):
        if basis[r] >= n + m:
            col = next((j for j in range(n + m) if tab[r][j] != 0), None)
            if col is not None:
                d = _pivot(tab, basis, r, col, d)

    # Phase 2 on the original objective: reduced costs d*c - sum of
    # c_B(r) times row r, with no division.
    cost += [0] * (2 * m)  # surplus and artificial columns cost nothing
    obj = [d * v for v in cost[:n + m]] + [0]
    for r in range(m):
        factor = cost[basis[r]]
        if factor:
            obj = [a - factor * t for a, t in zip(obj, tab[r])]
    tab.append(obj)
    d = _run_simplex(tab, basis, n + m, d)

    x = [Fraction(0)] * n
    total = 0
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][-1], d)
            total += cost[basis[r]] * tab[r][-1]
    # Surplus column i is -e_i, or +e_i in a flipped row, whose tableau
    # dual is -y_i; either way its reduced cost is y_i.
    y = [Fraction(scale * v, k * d) for v in tab[-1][n:n + m]]
    return Fraction(total, k * d), x, y
