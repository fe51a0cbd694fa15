import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from modgraph import (
    CycleBasis,
    CycleForm,
    KirchhoffPolynomial,
    Multigraph,
    PolynomialError,
    bridges,
    betti,
    cycle_basis_from_tree,
    cycle_form,
    fundamental_cycle_basis,
    inverse_decay_check,
    analyze,
    make_doubled_2ngon,
    optimal_contraction,
    parse_graph,
    psi_det,
    psi_from_graph,
    psi_trees,
    spanning_trees,
)
from modgraph.cli import main
from modgraph.selftest import (
    cap_core_graph,
    dense_core_graph,
    random_connected_multigraph,
    small_connected_multigraphs,
    theta_graph,
)

from helpers import cap_graph


def complete_graph(n):
    return parse_graph("\n".join(f"{i} {j}" for i in range(n)
                                 for j in range(i + 1, n)))


class TestKirchhoffPolynomial:
    def test_display_order(self):
        # x0*x1, x1*x2, x0, 1: degree first, then ascending supports
        p = KirchhoffPolynomial(3, (0b001, 0b110, 0, 0b011))
        assert p.masks == (0b011, 0b110, 0b001, 0)
        assert p.supports() == [(0, 1), (1, 2), (0,), ()]
        assert str(p) == "x0*x1 + x1*x2 + x0 + 1"
        assert p.degree() == 2
        assert p == KirchhoffPolynomial(3, (0, 0b011, 0b001, 0b110))
        assert hash(p) == hash(KirchhoffPolynomial(3, p.masks[::-1]))
        assert p != KirchhoffPolynomial(4, p.masks)

    def test_repeated_or_wide_monomial_rejected(self):
        with pytest.raises(PolynomialError, match="repeated"):
            KirchhoffPolynomial(2, (0b01, 0b01))
        with pytest.raises(PolynomialError, match="outside 2 variables"):
            KirchhoffPolynomial(2, (0b100,))
        with pytest.raises(PolynomialError, match="outside"):
            KirchhoffPolynomial(2, (-1,))

    @pytest.mark.parametrize("masks", [(), (1,)])
    def test_negative_nvars_rejected(self, masks):
        with pytest.raises(PolynomialError, match="negative variable count"):
            KirchhoffPolynomial(-1, masks)


def _form_values(form, x):
    """(C diag(x)) C^T as nested lists."""
    c = np.array(form.cycles, dtype=float).reshape(form.size, form.nvars)
    return ((c * np.array(x, dtype=float)) @ c.T).tolist()


class TestCycleForm:
    def test_p3_form(self):
        g = parse_graph("0 1\n1 2\n2 0")
        form = cycle_form(g, fundamental_cycle_basis(g))
        assert form.size == 1
        assert form.cycles == ((1, 1, 1),)
        assert _form_values(form, (1, 2, 3)) == [[6.0]]  # x0 + x1 + x2

    def test_theta_form(self):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        assert form.cycles == ((-1, 1, 0), (-1, 0, 1))
        # [[x0 + x1, x0], [x0, x0 + x2]]
        assert _form_values(form, (1, 2, 3)) == [[3.0, 1.0], [1.0, 4.0]]

    def test_single_loop_form(self):
        g = parse_graph('{"edges": [[0, 0]]}')
        form = cycle_form(g, fundamental_cycle_basis(g))
        assert form.cycles == ((1,),)
        assert _form_values(form, (1,)) == [[1.0]]  # x0

    def test_entry_outside_signs_rejected(self):
        with pytest.raises(PolynomialError, match="-1, 0, 1"):
            CycleForm(2, ((1, 2),))

    def test_short_row_rejected(self):
        with pytest.raises(PolynomialError, match="row length 1 != nvars 2"):
            CycleForm(2, ((1, 0), (1,)))

    def test_basis_of_another_graph_rejected(self):
        # the theta's two rows on the triangle's three edges (b = 1)
        p3 = parse_graph("0 1\n1 2\n2 0")
        with pytest.raises(PolynomialError, match="does not match"):
            cycle_form(p3, fundamental_cycle_basis(theta_graph()))

    def test_basis_with_short_row_rejected(self):
        g = theta_graph()
        basis = fundamental_cycle_basis(g)
        short = CycleBasis((basis.cycles[0], basis.cycles[1][:-1]), basis.tree)
        with pytest.raises(PolynomialError, match="row length 2 != nvars 3"):
            cycle_form(g, short)

    @pytest.mark.parametrize("cycles", [(), ((),)])
    def test_negative_nvars_rejected(self, cycles):
        # with no rows there is no row length to catch it
        with pytest.raises(PolynomialError, match="negative variable count -1"):
            CycleForm(-1, cycles)


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
        for psi in (psi_det(form), psi_trees(path)):
            assert psi.terms() == (0,)
            assert str(psi) == "1"

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
            assert psi.degree() == betti(g)
            for mask in psi.terms():
                assert mask.bit_count() == betti(g)  # homogeneous of degree b
                assert mask >> g.n_edges == 0

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
            assert psi.terms()
            for mask in psi.terms():
                assert not any(mask >> i & 1 for i in blocked), bin(mask)
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

    @pytest.mark.parametrize("loops", [0, 2])
    def test_doubled_12gon_at_the_edge_cap(self, loops):
        g = make_doubled_2ngon(6)
        g = Multigraph(g.vertices, g.edges + ((0, 0),) * loops)
        assert (g.n_edges, betti(g)) == (18 + loops, 7 + loops)
        det, tree = psi_from_graph(g)
        assert det == tree
        assert len(tree.terms()) == 576

    def test_det_route_never_enumerates_trees(self, monkeypatch):
        import modgraph.graphs
        import modgraph.kirchhoff

        k6 = complete_graph(6)

        def refuse(*args, **kwargs):
            raise AssertionError("determinant route used a GF(2) helper")

        with monkeypatch.context() as patch:
            patch.setattr(modgraph.graphs, "spanning_trees", refuse)
            patch.setattr(modgraph.kirchhoff, "spanning_trees", refuse)
            form = cycle_form(k6, fundamental_cycle_basis(k6))
            det = psi_det(form)
        assert form.size == 10
        assert det == psi_trees(k6)
        assert len(det.terms()) == 1296
        # The form's spanning tree comes from Kruskal, which reduces cut
        # vectors over GF(2); once the form is built, the determinant must
        # not reduce any vector over GF(2) either.
        for g in (k6, dense_core_graph(), cap_graph()):
            form = cycle_form(g, fundamental_cycle_basis(g))
            with monkeypatch.context() as patch:
                patch.setattr(modgraph.graphs, "spanning_trees", refuse)
                patch.setattr(modgraph.graphs, "_reduce", refuse)
                patch.setattr(modgraph.graphs, "_cycle_columns", refuse)
                patch.setattr(modgraph.kirchhoff, "spanning_trees", refuse)
                det = psi_det(form)
            assert det == psi_trees(g)

    def test_dense_core_at_the_edge_cap(self):
        # v = 11, b = 10: C(20, 10) = 184,756 column subsets, more than
        # one block of DET_BLOCK, decided in well under a second
        from modgraph.kirchhoff import DET_BLOCK

        g = dense_core_graph()
        assert (g.n_edges, g.n_vertices, betti(g)) == (20, 11, 10)
        assert not bridges(g)
        assert math.comb(20, 10) > DET_BLOCK
        det, tree = psi_from_graph(g)
        assert det == tree
        assert len(tree.terms()) == 10122
        budget = 15.0
        start = time.perf_counter()
        report = analyze(g)
        elapsed = time.perf_counter() - start
        assert report.psi_routes_agree
        assert elapsed < budget, f"analyze took {elapsed:.1f} s"

    def test_cap_graph_with_loop_and_bridge(self):
        g = cap_graph()
        assert (g.n_edges, betti(g)) == (20, 4)
        assert len(bridges(g)) == 1
        det, tree = psi_from_graph(g)
        assert det == tree
        assert all(mask >> 18 & 1 for mask in det.terms())  # the loop
        assert not any(mask >> 19 & 1 for mask in det.terms())  # the bridge

    def test_loops_and_bridges_random(self):
        rng = random.Random(8675309)
        for _ in range(40):
            g = random_connected_multigraph(rng, 7, 10)
            loops = rng.randint(0, 2)
            v0 = g.vertices[0][0]
            g = Multigraph(g.vertices, g.edges + ((v0, v0),) * loops)
            det, tree = psi_from_graph(g)
            assert det == tree, g.edges


class TestDisplay:
    """The display bytes of large polynomials, pinned by digest: one term
    out of order in 10^4 changes the digest."""

    @pytest.mark.parametrize("make, n_terms, digest", [
        (dense_core_graph, 10122,
         "98a0b58a442d2e8f21ac30c31269000207a43dd3a292b52f5afea812061069c6"),
        (cap_core_graph, 432,
         "5ea1750b5ccdb5e00cfc39816087562009747d401f37e054efd496410801c6be"),
        (lambda: make_doubled_2ngon(4), 96,
         "119dd18ae3d3387cb4b664c58950d0861456c7cf235288c444c659755d78e891"),
    ])
    def test_display_digest(self, make, n_terms, digest):
        g = make()
        det, tree = psi_from_graph(g)
        assert det == tree
        assert len(tree.terms()) == n_terms
        assert hashlib.sha256(str(tree).encode()).hexdigest() == digest

    def test_more_than_64_variables(self, tmp_path, capsys):
        # 64 path bridges (edges 0-63), then a tripled edge (64-66):
        # analyze runs both routes on the whole graph, so every monomial
        # needs bits above 63
        edges = [(i, i + 1) for i in range(64)] + [(64, 65)] * 3
        g = parse_graph("\n".join(f"{a} {b}" for a, b in edges))
        det, tree = psi_from_graph(g)
        assert det == tree
        assert str(tree) == "x64*x65 + x64*x66 + x65*x66"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(g.to_json_dict()))
        assert main(["analyze", str(path), "--max-edges", "67"]) == 0
        psi = json.loads(capsys.readouterr().out)["psi"]
        assert (psi["terms"], psi["degree"]) == (3, 2)
        assert psi["display"] == str(tree)


class TestDetContract:
    """psi_det takes C from the form and refuses a C that is not totally
    unimodular."""

    def test_not_totally_unimodular(self):
        # columns (1, 1) and (1, -1): det = 4*x0*x1, a minor of -2
        with pytest.raises(PolynomialError, match="totally unimodular"):
            psi_det(CycleForm(2, ((1, 1), (1, -1))))

    def test_singular_form_is_zero(self):
        # both rows are x0 only: rank one, so the determinant vanishes
        psi = psi_det(CycleForm(2, ((1, 0), (1, 0))))
        assert psi.terms() == ()
        assert str(psi) == "0"

    def test_loops_factor_out(self):
        # two loops and a triangle: psi = x0 * x1 * (x2 + x3 + x4)
        g = parse_graph("0 0\n1 1\n0 1\n1 2\n2 0")
        det = psi_det(cycle_form(g, fundamental_cycle_basis(g)))
        assert str(det) == "x0*x1*x2 + x0*x1*x3 + x0*x1*x4"

    @staticmethod
    def direct_sum(forms):
        """The block-diagonal form of `forms`, its rows in reverse order."""
        nvars = sum(form.nvars for form in forms)
        rows, offset = [], 0
        for form in forms:
            rows += [(0,) * offset + row + (0,) * (nvars - offset - form.nvars)
                     for row in form.cycles]
            offset += form.nvars
        return CycleForm(nvars, tuple(rows[::-1]))

    def test_direct_sum_is_the_product(self):
        # theta + K4 + a loop, glued at vertex 0 for the tree route
        parts = [theta_graph(), complete_graph(4), parse_graph("0 0")]
        forms = [cycle_form(g, fundamental_cycle_basis(g)) for g in parts]
        product, offset = [0], 0
        for form in forms:
            product = [a | b << offset for a in product
                       for b in psi_det(form).terms()]
            offset += form.nvars
        det = psi_det(self.direct_sum(forms))
        assert det == KirchhoffPolynomial(10, product)
        assert len(det.terms()) == 3 * 16
        at = {0: 0, 1: 2, 2: 3, 3: 4}  # K4 meets theta at vertex 0
        k4 = [(at[a], at[b]) for a, b in complete_graph(4).edges]
        glued = parse_graph("\n".join(
            f"{a} {b}" for a, b in [(0, 1)] * 3 + k4 + [(0, 0)]))
        assert det == psi_trees(glued)

    def test_not_totally_unimodular_part_of_a_direct_sum(self):
        theta, loop = (cycle_form(g, fundamental_cycle_basis(g))
                       for g in (theta_graph(), parse_graph("0 0")))
        bad = CycleForm(2, ((1, 1), (1, -1)))  # a minor of -2
        assert psi_det(self.direct_sum([theta, loop, theta])).terms()
        with pytest.raises(PolynomialError,
                           match="^cycle matrix is not totally unimodular$"):
            psi_det(self.direct_sum([theta, loop, bad, theta]))

    def test_one_psi_det_call_per_route_call(self, monkeypatch):
        import modgraph.kirchhoff

        calls = []
        det = modgraph.kirchhoff.psi_det

        def counted(form):
            calls.append(form)
            return det(form)

        monkeypatch.setattr(modgraph.kirchhoff, "psi_det", counted)
        for g in (dense_core_graph(), cap_graph(),
                  parse_graph("0 0\n1 1\n0 1\n0 1\n1 2\n2 0")):
            calls.clear()
            psi_from_graph(g)
            assert len(calls) == 1


def _det(rows):
    """Exact integer determinant of a square matrix, by Leibniz's formula
    in Python ints."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(
            row[j] for row, j in zip(rows, perm))
    return total


def _minors_of(rows, k):
    """Every k x k minor of a matrix given by its rows."""
    for r in itertools.combinations(rows, k):
        for cols in itertools.combinations(range(len(rows[0])), k):
            yield _det([[row[j] for j in cols] for row in r])


class TestDetOracle:
    """psi_det against Cauchy-Binet by brute force, on totally unimodular
    forms that no graph has: a row whose one nonzero lies in a column that
    meets other rows."""

    @staticmethod
    def random_forms(seed, count):
        """Seeded forms with b <= 4 rows and nvars <= 7 whose every square
        minor lies in {-1, 0, 1}; most have one row with a single nonzero
        in a column that other rows share."""
        rng = random.Random(seed)
        while count:
            b, nvars = rng.randint(1, 4), rng.randint(1, 7)
            rows = [[rng.choice((0, 0, 1, -1)) for _ in range(nvars)]
                    for _ in range(b)]
            if b > 1 and rng.random() < 0.8:
                r, j = rng.sample(range(b), 2), rng.randrange(nvars)
                rows[r[0]] = [0] * nvars
                rows[r[0]][j] = rng.choice((1, -1))
                rows[r[1]][j] = rng.choice((1, -1))
            if all(abs(d) <= 1 for k in range(1, min(b, nvars) + 1)
                   for d in _minors_of(rows, k)):
                count -= 1
                yield CycleForm(nvars, tuple(map(tuple, rows)))

    @staticmethod
    def cauchy_binet(form):
        """{mask of S: det(C_S)^2} over the b-subsets S of the columns with
        det(C_S) != 0."""
        out = {}
        for cols in itertools.combinations(range(form.nvars), form.size):
            d = _det([[row[j] for j in cols] for row in form.cycles])
            if d:
                out[sum(1 << j for j in cols)] = d * d
        return out

    @staticmethod
    def singleton_shared(form):
        """A row with one nonzero, whose column meets another row."""
        for row in form.cycles:
            support = [j for j, x in enumerate(row) if x]
            if len(support) == 1 and sum(
                    bool(other[support[0]]) for other in form.cycles) > 1:
                return True
        return False

    def test_matches_cauchy_binet(self):
        shared = 0
        for form in self.random_forms(41, 200):
            terms = self.cauchy_binet(form)
            assert set(terms.values()) <= {1}
            expected = KirchhoffPolynomial(form.nvars, tuple(terms))
            assert psi_det(form) == expected
            shared += self.singleton_shared(form)
        assert shared >= 30

    def test_not_totally_unimodular_behind_a_singleton_row(self):
        # row 0 holds only column 0, which row 1 shares; rows 1..3 on
        # columns 1..3 have determinant 2
        form = CycleForm(4, ((1, 0, 0, 0), (1, 1, 1, 0), (0, 0, 1, 1),
                             (0, 1, 0, 1)))
        assert _det(form.cycles) == 2
        with pytest.raises(PolynomialError,
                           match="^cycle matrix is not totally unimodular$"):
            psi_det(form)


def _evaluate(psi, point):
    return math.fsum(math.prod(point[i] for i in support)
                     for support in psi.supports())


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
        small_monos = [frozenset(support) for support in psi_small.supports()]
        rng = random.Random(31)
        a = {e: rng.uniform(0.5, 2.0) for e in contracted}
        max_factor = 1.0
        for support in psi_big.supports():
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
            assert (_evaluate(psi_big, y_big)
                    <= c_const * _evaluate(psi_small, y_small) + 1e-9)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        g = theta_graph()
        form = cycle_form(g, fundamental_cycle_basis(g))
        with pytest.raises(PolynomialError, match="finite"):
            inverse_decay_check(form, (1.0, bad, 1.0), [1.0])
        with pytest.raises(PolynomialError, match="finite"):
            inverse_decay_check(form, (1.0, 1.0, 1.0), [1.0, bad])
