import math
import random

import pytest

from modgraph import (
    IntPolynomial,
    PolynomialError,
    bridges,
    betti,
    cycle_basis_from_tree,
    cycle_form,
    fundamental_cycle_basis,
    inverse_decay_check,
    make_doubled_2ngon,
    optimal_contraction,
    parse_graph,
    psi_det,
    psi_from_graph,
    psi_trees,
    spanning_trees,
)
from modgraph.selftest import (
    random_connected_multigraph,
    small_connected_multigraphs,
    theta_graph,
)


class TestIntPolynomial:
    def test_zero_coefficients_dropped(self):
        p = IntPolynomial(2, {(1, 0): 3, (0, 1): 0})
        assert p.terms() == {(1, 0): 3}

    def test_add_cancel(self):
        x = IntPolynomial.variable(2, 0)
        assert (x - x).is_zero

    def test_mul(self):
        x0 = IntPolynomial.variable(2, 0)
        x1 = IntPolynomial.variable(2, 1)
        p = (x0 + x1) * (x0 + x1)
        assert p.terms() == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_int_coercion(self):
        x = IntPolynomial.variable(1, 0)
        assert (2 * x + 1).terms() == {(1,): 2, (0,): 1}

    def test_nvars_mismatch(self):
        with pytest.raises(PolynomialError):
            IntPolynomial.variable(2, 0) + IntPolynomial.variable(3, 0)

    def test_display_graded_lex(self):
        g = theta_graph()
        assert str(psi_trees(g)) == "x0*x1 + x0*x2 + x1*x2"
        p = IntPolynomial(2, {(2, 0): 1, (0, 1): -3, (0, 0): 2})
        assert str(p) == "x0^2 - 3*x1 + 2"
        assert str(IntPolynomial.zero(3)) == "0"

    def test_divexact(self):
        x0 = IntPolynomial.variable(2, 0)
        x1 = IntPolynomial.variable(2, 1)
        prod = (x0 + x1) * (2 * x0 + 3 * x1)
        assert prod.divexact(x0 + x1) == 2 * x0 + 3 * x1

    def test_divexact_inexact_raises(self):
        x0 = IntPolynomial.variable(2, 0)
        x1 = IntPolynomial.variable(2, 1)
        with pytest.raises(PolynomialError):
            (x0 + x1).divexact(x0)

    def test_evaluate(self):
        p = psi_trees(theta_graph())
        assert p.evaluate((1.0, 1.0, 1.0)) == 3.0
        assert p.evaluate((0.0, 0.0, 0.0)) == 0.0
        with pytest.raises(PolynomialError):
            p.evaluate((1.0, 1.0))


class TestCycleForm:
    def test_p3_form(self):
        g = parse_graph("0 1\n1 2\n2 0")
        form = cycle_form(g, fundamental_cycle_basis(g))
        assert form.size == 1
        assert str(form.entries[0][0]) == "x0 + x1 + x2"

    def test_theta_form(self):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        rendered = [[str(p) for p in row] for row in form.entries]
        assert rendered == [["x0 + x1", "x0"], ["x0", "x0 + x2"]]

    def test_single_loop_form(self):
        g = parse_graph('{"edges": [[0, 0]]}')
        form = cycle_form(g, fundamental_cycle_basis(g))
        assert str(form.entries[0][0]) == "x0"


class TestPsi:
    def test_examples(self):
        p3 = parse_graph("0 1\n1 2\n2 0")
        assert str(psi_trees(p3)) == "x0 + x1 + x2"
        assert psi_det(cycle_form(p3, fundamental_cycle_basis(p3))) == psi_trees(p3)
        theta = theta_graph()
        assert str(psi_trees(theta)) == "x0*x1 + x0*x2 + x1*x2"

    def test_tree_graph_constant_one(self):
        path = parse_graph("0 1\n1 2")
        form = cycle_form(path, fundamental_cycle_basis(path))
        assert form.size == 0
        assert psi_det(form) == IntPolynomial.constant(2, 1)
        assert psi_trees(path) == IntPolynomial.constant(2, 1)

    def test_doubled_square_degree_and_terms(self):
        g = make_doubled_2ngon(2)
        psi = psi_trees(g)
        assert psi.degree() == 3
        assert len(psi.terms()) == len(spanning_trees(g))

    def test_identity_exhaustive_small(self):
        for g in small_connected_multigraphs(4):
            det, tree = psi_from_graph(g)
            assert det == tree, g.edges

    def test_identity_random(self):
        rng = random.Random(424243)
        for _ in range(60):
            g = random_connected_multigraph(rng, 7, 9)
            det, tree = psi_from_graph(g)
            assert det == tree, g.edges

    def test_homogeneous_unit_squarefree(self):
        rng = random.Random(555)
        for _ in range(40):
            g = random_connected_multigraph(rng, 6, 9)
            psi = psi_trees(g)
            assert psi.is_homogeneous()
            assert psi.degree() == betti(g)
            for exps, coeff in psi.terms().items():
                assert coeff == 1
                assert all(p <= 1 for p in exps)

    def test_no_bridge_variables(self):
        rng = random.Random(77)
        found = 0
        for _ in range(80):
            g = random_connected_multigraph(rng, 6, 8)
            blocked = bridges(g)
            if not blocked or betti(g) == 0:
                continue
            found += 1
            psi = psi_trees(g)
            assert psi.variables_used().isdisjoint(blocked)
        assert found >= 10

    def test_basis_independence(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_connected_multigraph(rng, 6, 8)
            if betti(g) == 0:
                continue
            trees = spanning_trees(g)
            first = cycle_basis_from_tree(g, trees[0])
            last = cycle_basis_from_tree(g, trees[-1])
            psi_a = psi_det(cycle_form(g, first))
            psi_b = psi_det(cycle_form(g, last))
            assert psi_a == psi_b == psi_trees(g)

    def test_bareiss_path_matches_cofactor_inputs(self):
        # b = 6 exercises the fraction-free elimination route
        g = make_doubled_2ngon(5)
        assert betti(g) == 6
        det, tree = psi_from_graph(g)
        assert det == tree
        assert len(tree.terms()) == len(spanning_trees(g))


class TestSubstitutionProperty:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monomial_bookkeeping_on_doubled_2ngons(self, n):
        # Setting x_e = a_e on the contracted set sends every Kirchhoff
        # monomial of the big graph to a constant times a monomial whose
        # support is independent in the contracted matroid, i.e. contained
        # in some Kirchhoff monomial of the contracted graph.  (A spanning
        # tree's surviving edges can close a cycle downstairs, so equality
        # with a monomial of the contracted polynomial can fail; containment
        # is what holds and what the domination inequality needs.)
        g = make_doubled_2ngon(n)
        contracted, gbar = optimal_contraction(g)
        kept = sorted(set(range(g.n_edges)) - contracted)
        position = {eid: k for k, eid in enumerate(kept)}
        psi_big = psi_trees(g)
        psi_small = psi_trees(gbar)
        small_monos = [
            frozenset(i for i, p in enumerate(exps) if p)
            for exps in psi_small.terms()
        ]
        rng = random.Random(31)
        a = {e: rng.uniform(0.5, 2.0) for e in contracted}
        max_factor = 1.0
        for exps in psi_big.terms():
            support = [i for i, p in enumerate(exps) if p]
            reduced = frozenset(
                position[e] for e in support if e not in contracted
            )
            assert any(reduced <= mono for mono in small_monos)
            factor = math.prod(a[e] for e in support if e in contracted)
            max_factor = max(max_factor, factor)
        # hence the substituted polynomial is dominated by C * psi_gbar
        # wherever all coordinates are >= 1
        c_const = max_factor * len(psi_big.terms())
        for _ in range(20):
            y_small = [rng.uniform(1.0, 50.0) for _ in range(gbar.n_edges)]
            y_big = [0.0] * g.n_edges
            for eid in range(g.n_edges):
                if eid in contracted:
                    y_big[eid] = a[eid]
                else:
                    y_big[eid] = y_small[position[eid]]
            assert psi_big.evaluate(y_big) <= c_const * psi_small.evaluate(y_small) + 1e-9


class TestInverseDecay:
    def test_p3_values(self):
        g = parse_graph("0 1\n1 2\n2 0")
        form = cycle_form(g, fundamental_cycle_basis(g))
        vals = inverse_decay_check(form, (1.0, 1.0, 1.0), [1.0, 10.0, 100.0])
        assert vals == pytest.approx([1 / 3, 1 / 30, 1 / 300], rel=1e-12)

    def test_theta_ratio(self):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        v1, v10 = inverse_decay_check(form, (1.0, 1.0, 1.0), [1.0, 10.0])
        assert v1 / v10 == pytest.approx(10.0, rel=1e-12)

    def test_doubling_halves_exactly(self):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        v1, v2 = inverse_decay_check(form, (1.0, 1.0, 1.0), [1.0, 2.0])
        assert v2 == pytest.approx(v1 / 2, rel=1e-13)

    def test_monotone_decay_to_zero(self):
        g = make_doubled_2ngon(2)
        form = cycle_form(g, fundamental_cycle_basis(g))
        vals = inverse_decay_check(form, (0.5, 1.0, 1.5, 2.0, 0.75, 1.25),
                                   [1.0, 10.0, 100.0, 1000.0, 10000.0])
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_bad_direction(self):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        with pytest.raises(PolynomialError):
            inverse_decay_check(form, (1.0, -1.0, 1.0), [1.0])
        with pytest.raises(PolynomialError):
            inverse_decay_check(form, (1.0, 1.0, 1.0), [2.0, 1.0])
