import random
from fractions import Fraction

import pytest

from modgraph.graphs import spanning_trees
from modgraph.selftest import k4_graph
from modgraph.simplex import InfeasibleError, UnboundedError, minimize


def test_simple_cover():
    # min x1 + x2 with x1 >= 1, x2 >= 2
    value, x, _ = minimize([1, 1], [[1, 0], [0, 1]], [1, 2])
    assert value == 3
    assert x == [1, 2]


def test_fractional_optimum():
    # min x1 + x2 + x3 subject to pairwise sums >= 1: optimum 3/2
    a = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    value, x, _ = minimize([1, 1, 1], a, [1, 1, 1])
    assert value == Fraction(3, 2)
    assert all(xi >= 0 for xi in x)
    assert all(sum(ai * xi for ai, xi in zip(row, x)) >= 1 for row in a)


def test_exactness_no_float_drift():
    value, _, _ = minimize(
        [Fraction(1, 3), Fraction(1, 7)],
        [[Fraction(2, 5), Fraction(1, 9)]],
        [Fraction(11, 13)],
    )
    # optimum puts everything on the variable with the best cost ratio
    assert value in (Fraction(11 * 5, 13 * 2 * 3), Fraction(11 * 9, 13 * 7))
    assert isinstance(value, Fraction)


def test_degenerate_terminates():
    # redundant constraints force degenerate pivots; Bland must terminate
    a = [[1, 1], [1, 1], [2, 2], [1, 0]]
    value, x, _ = minimize([1, 2], a, [1, 1, 2, 0])
    assert value == 1
    assert x == [1, 0]


def test_infeasible():
    with pytest.raises(InfeasibleError):
        minimize([1], [[-1]], [1])  # -x >= 1 with x >= 0


def test_unbounded():
    with pytest.raises(UnboundedError):
        minimize([-1], [[1]], [0])  # min -x, x >= 0


def test_dimension_check():
    with pytest.raises(ValueError):
        minimize([1, 1], [[1]], [1])


# (c, A, b) and the exact (value, x) that minimize returned before it
# also returned the dual; the last two have rows with negative b.
FROZEN = [
    (([1, 1], [[1, 0], [0, 1]], [1, 2]),
     (Fraction(3), [Fraction(1), Fraction(2)])),
    (([1, 1, 1], [[1, 1, 0], [1, 0, 1], [0, 1, 1]], [1, 1, 1]),
     (Fraction(3, 2), [Fraction(1, 2)] * 3)),
    (([Fraction(1, 3), Fraction(1, 7)], [[Fraction(2, 5), Fraction(1, 9)]],
      [Fraction(11, 13)]),
     (Fraction(55, 78), [Fraction(55, 26), Fraction(0)])),
    (([1, 2], [[1, 1], [1, 1], [2, 2], [1, 0]], [1, 1, 2, 0]),
     (Fraction(1), [Fraction(1), Fraction(0)])),
    (([2, 3, 1], [[1, -1, 0], [-1, 0, -1], [1, 1, 1]], [-1, -3, 2]),
     (Fraction(2), [Fraction(0), Fraction(0), Fraction(2)])),
    (([1, 1, 1, 1], [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1],
                     [-1, 0, 0, -1]], [1, 1, 1, -2]),
     (Fraction(3, 2), [Fraction(1, 2)] * 3 + [Fraction(0)])),
]


@pytest.mark.parametrize("lp, expected", FROZEN)
def test_minimize_unchanged(lp, expected):
    value, x, y = minimize(*lp)
    assert (value, x) == expected
    assert all(type(v) is Fraction for v in [value, *x, *y])


def assert_optimal_pair(c, a, b, value, x, y):
    """Primal and dual feasibility, strong duality, complementary slackness."""
    c = [Fraction(v) for v in c]
    rows = [sum(aij * xj for aij, xj in zip(row, x)) for row in a]
    cols = [sum(a[i][j] * y[i] for i in range(len(a))) for j in range(len(c))]
    assert all(xj >= 0 for xj in x)
    assert all(r >= bi for r, bi in zip(rows, b))
    assert all(yi >= 0 for yi in y)
    assert all(col <= cj for col, cj in zip(cols, c))
    assert sum(yi * bi for yi, bi in zip(y, b)) == value
    assert sum(cj * xj for cj, xj in zip(c, x)) == value
    assert all(yi * (r - bi) == 0 for yi, r, bi in zip(y, rows, b))
    assert all(xj * (cj - col) == 0 for xj, cj, col in zip(x, c, cols))


def test_dual_on_random_covering_lps():
    rng = random.Random(20240)
    solved = flipped_binding = 0
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.choice([-1, 0, 0, 1, 1, 2]) for _ in range(n)]
             for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        try:
            value, x, y = minimize(c, a, b)
        except InfeasibleError:
            continue
        assert_optimal_pair(c, a, b, value, x, y)
        solved += 1
        flipped_binding += any(bi < 0 and yi > 0 for bi, yi in zip(b, y))
    assert solved >= 100
    assert flipped_binding >= 5  # flipped rows with a nonzero dual occur


def test_dual_of_tree_cover():
    # K4's covering LP over its 16 spanning-tree complements: value 2
    # (= 6 edges / rank 3), and the dual y = (1/3, ..., 1/3).
    trees = spanning_trees(k4_graph())
    assert len(trees) == 16
    a = [[int(i not in t) for t in trees] for i in range(6)]
    value, x, y = minimize([1] * 16, a, [1] * 6)
    assert value == 2
    assert y == [Fraction(1, 3)] * 6
    assert_optimal_pair([1] * 16, a, [1] * 6, value, x, y)
