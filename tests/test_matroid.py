import itertools
import json
import random
from fractions import Fraction

import pytest

from modgraph import (
    CographicMatroid,
    MatroidError,
    Multigraph,
    analyze,
    betti,
    build_witness,
    cover_lp_oracle,
    density,
    in_scaled_polytope,
    make_doubled_2ngon,
    make_ngon,
    parse_graph,
    threshold,
)
from modgraph.graphs import component_count
from modgraph.selftest import (
    double_triangle_graph,
    k4_graph,
    random_bridgeless_multigraph,
    theta_graph,
)


def all_subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


def graph(n_vertices, edges):
    return Multigraph(tuple((i, 0) for i in range(n_vertices)), tuple(edges))


def k5_graph():
    return graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def wheel6_plus_chord():
    rim = [(i, (i + 1) % 6) for i in range(6)]
    return graph(7, rim + [(i, 6) for i in range(6)] + [(0, 3)])


def subdivided_k4_with_loop():
    """K4 with every edge a 3-path, plus a loop: 19 edges, 16 vertices."""
    edges, v = [], 4
    for a, b in itertools.combinations(range(4), 2):
        edges += [(a, v), (v, v + 1), (v + 1, b)]
        v += 2
    return graph(v, edges + [(0, 0)])


def fractional_witness_graph():
    """Three vertices, 11 edges with loops; its witness has 4/3 entries."""
    return graph(3, [(0, 0), (0, 2), (0, 2), (0, 1), (2, 0), (0, 0), (2, 1),
                     (0, 2), (1, 1), (2, 1), (1, 0)])


def rank_by_components(g, mask):
    removed = frozenset(i for i in range(g.n_edges) if mask >> i & 1)
    return len(removed) - component_count(g, removed) + 1


class TestCorank:
    def test_theta_examples(self):
        m = CographicMatroid(theta_graph())
        assert m.corank({0}) == 1
        assert m.corank({0, 1, 2}) == 2
        assert m.corank(set()) == 0

    def test_double_triangle_one_triangle(self):
        m = CographicMatroid(double_triangle_graph())
        assert m.corank({0, 1, 2}) == 1

    def test_full_rank_is_betti(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_bridgeless_multigraph(rng, 6, 8, 10**9)
            m = CographicMatroid(g)
            assert m.corank(range(g.n_edges)) == betti(g)

    def test_bridge_rejected(self):
        with pytest.raises(MatroidError, match="bridge"):
            CographicMatroid(parse_graph("0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3"))

    def test_rank_axioms_exhaustive(self):
        # monotone, submodular, rk(0) = 0, rk(S) <= |S|, on graphs <= 8 edges
        rng = random.Random(43)
        graphs = [theta_graph(), k4_graph(), make_doubled_2ngon(2)]
        graphs += [random_bridgeless_multigraph(rng, 5, 8, 10**9) for _ in range(3)]
        for g in graphs:
            m = CographicMatroid(g)
            e = g.n_edges
            rank = {s: m.corank(s) for s in all_subsets(e)}
            assert rank[frozenset()] == 0
            for s in all_subsets(e):
                assert 0 <= rank[s] <= len(s)
                for x in range(e):
                    sx = s | {x}
                    assert rank[s] <= rank[sx] <= rank[s] + 1
            for s, t in itertools.product(all_subsets(e), repeat=2):
                assert rank[s | t] + rank[s & t] <= rank[s] + rank[t]


class TestRankTable:
    def test_matches_component_count_every_mask(self):
        rng = random.Random(67)
        for _ in range(30):
            g = random_bridgeless_multigraph(rng, 7, 12, 10**9)
            table = CographicMatroid(g).rank_table()
            assert len(table) == 1 << g.n_edges
            for mask in range(1 << g.n_edges):
                assert table[mask] == rank_by_components(g, mask)

    def test_matches_component_count_sampled_19_edges(self):
        g = subdivided_k4_with_loop()
        m = CographicMatroid(g)
        table = m.rank_table()
        assert len(table) == 1 << 19
        rng = random.Random(71)
        masks = [0, (1 << 19) - 1] + [rng.getrandbits(19) for _ in range(2000)]
        for mask in masks:
            assert table[mask] == rank_by_components(g, mask)
        assert m.corank(range(19)) == betti(g)

    def test_table_is_read_only_and_corank_is_int(self):
        m = CographicMatroid(theta_graph())
        with pytest.raises(ValueError):
            m.rank_table()[1] = 5
        assert type(m.corank({0, 1})) is int


class TestDensity:
    def test_pn(self):
        for n in range(2, 6):
            cert = density(CographicMatroid(make_ngon(n)))
            assert cert.m == n
            assert cert.t0 == frozenset(range(n))

    def test_theta(self):
        cert = density(CographicMatroid(theta_graph()))
        assert cert.m == Fraction(3, 2)
        assert cert.t0 == frozenset({0, 1, 2})

    def test_double_triangle(self):
        cert = density(CographicMatroid(double_triangle_graph()))
        assert cert.m == 3
        assert cert.t0 == frozenset(range(6))

    def test_union_closure_of_maximizers(self):
        rng = random.Random(47)
        graphs = [theta_graph(), k4_graph(), double_triangle_graph()]
        graphs += [random_bridgeless_multigraph(rng, 5, 7, 10**9) for _ in range(4)]
        for g in graphs:
            m = CographicMatroid(g)
            cert = density(m)
            maximizers = [
                s for s in all_subsets(g.n_edges)
                if s and Fraction(len(s), m.corank(s)) == cert.m
            ]
            for s, t in itertools.combinations(maximizers, 2):
                u = s | t
                assert Fraction(len(u), m.corank(u)) == cert.m
            union = frozenset().union(*maximizers)
            assert union == cert.t0

    def test_lower_bound_e_over_b(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_bridgeless_multigraph(rng, 6, 8, 10**9)
            cert = density(CographicMatroid(g))
            assert cert.m >= Fraction(g.n_edges, betti(g))

    def test_size_guard(self):
        g = make_ngon(21)
        with pytest.raises(MatroidError, match="capped"):
            density(CographicMatroid(g))


class TestPolytope:
    def test_p3_examples(self):
        m = CographicMatroid(make_ngon(3))
        assert in_scaled_polytope(m, (1, 1, 1), 3)
        assert not in_scaled_polytope(m, (1, 1, 1), 2)
        assert not in_scaled_polytope(m, (-1, 2, 2), 3)

    def test_scaled_vertex(self):
        # theta: m = 3/2, witness (1,1,1) sits exactly in (3/2) P(M)
        m = CographicMatroid(theta_graph())
        assert in_scaled_polytope(m, (1, 1, 1), Fraction(3, 2))
        assert not in_scaled_polytope(m, (1, 1, 1), Fraction(4, 3))


    def test_huge_denominators_stay_exact(self):
        # scaled by 2^70 the coordinates pass 2^62, so the check runs on
        # Python ints; a 2^-70 excess on one subset must still be caught
        m = CographicMatroid(theta_graph())
        d = Fraction(1, 2**70)
        t = Fraction(3, 2)
        assert in_scaled_polytope(m, (t, t - d, d), t)
        assert in_scaled_polytope(m, (1 + d, 1 - d, 1), t)
        assert not in_scaled_polytope(m, (t + d, t - d, 0), t)
        assert not in_scaled_polytope(m, (t + d, t, -d), t)
        assert not in_scaled_polytope(m, (1 + d, 1, 1), t)
        assert in_scaled_polytope(m, (1, 1, 1 + d), t + d / 2)
        assert not in_scaled_polytope(m, (1, 1, 1 + d), t)


class TestWitness:
    def test_all_ones_families(self):
        # P_3, theta and the doubled square are tight at the start
        for g in (make_ngon(3), theta_graph(), make_doubled_2ngon(2)):
            cert = build_witness(CographicMatroid(g))
            assert cert.witness == tuple([Fraction(1)] * g.n_edges)

    def test_witness_valid_on_random_graphs(self):
        rng = random.Random(59)
        for _ in range(15):
            g = random_bridgeless_multigraph(rng, 6, 8, 10**9)
            m = CographicMatroid(g)
            cert = build_witness(m)
            assert all(x >= 1 for x in cert.witness)
            assert in_scaled_polytope(m, cert.witness, cert.m)

    def test_lower_bound_certificate_chain(self):
        # |T0| <= phi_T0(w) <= m * rk(T0) with |T0| / rk(T0) = m
        rng = random.Random(83)
        graphs = [theta_graph(), k4_graph(), double_triangle_graph()]
        graphs += [random_bridgeless_multigraph(rng, 6, 8, 10**9) for _ in range(5)]
        for g in graphs:
            m = CographicMatroid(g)
            cert = build_witness(m)
            phi_t0 = sum(cert.witness[e] for e in cert.t0)
            rk_t0 = m.corank(cert.t0)
            assert len(cert.t0) <= phi_t0 <= cert.m * rk_t0
            assert Fraction(len(cert.t0), rk_t0) == cert.m

    def test_witness_needs_tightening_somewhere(self):
        # a graph where all-ones is not already in m*P(M): bouquet of loops
        # plus a parallel pair forces raising the loop coordinates
        g = parse_graph("0 1\n0 1\n0 0")
        m = CographicMatroid(g)
        cert = build_witness(m)
        assert cert.m == 2  # the parallel pair {0,1} has rank 1
        assert in_scaled_polytope(m, cert.witness, cert.m)
        assert cert.witness[2] > 1  # loop coordinate had to grow


    def test_witnesses_unchanged(self):
        # frozen from the Fraction implementation
        d5 = ["4", "1"] * 5 + ["1"] * 5
        cap = ["1"] * 18 + ["6"]
        frac = ["4/3", "1", "1", "1", "1", "4/3", "1", "1", "4/3", "1", "1"]
        cases = [
            (k5_graph(), "5/3", range(10), ["1"] * 10),
            (make_doubled_2ngon(5), "5", [1, 3, 5, 7, 9], d5),
            (wheel6_plus_chord(), "13/7", range(13), ["1"] * 13),
            (subdivided_k4_with_loop(), "6", range(18), cap),
            (fractional_witness_graph(), "4/3", [1, 2, 3, 4, 6, 7, 9, 10], frac),
        ]
        for g, c, t0, witness in cases:
            c_found, cert = threshold(g)
            assert str(c_found) == c
            assert sorted(cert.t0) == list(t0)
            assert [str(x) for x in cert.witness] == witness
            assert all(type(x) is Fraction for x in cert.witness)
            assert all(type(x.numerator) is int for x in cert.witness)

    def test_report_is_plain_json(self):
        g = graph(4, fractional_witness_graph().edges + ((2, 3),))
        report = analyze(g).to_json_dict()
        assert report["certificate"]["witness"][0] == "4/3"
        assert json.loads(json.dumps(report)) == report


class TestCoverLP:
    def test_examples(self):
        assert cover_lp_oracle(make_ngon(3)) == 3
        assert cover_lp_oracle(theta_graph()) == Fraction(3, 2)
        assert cover_lp_oracle(make_doubled_2ngon(2)) == 2

    def test_matches_density_random(self):
        rng = random.Random(61)
        for _ in range(12):
            g = random_bridgeless_multigraph(rng, 6, 8, 200)
            assert cover_lp_oracle(g) == density(CographicMatroid(g)).m

    def test_tree_guard(self):
        g = make_doubled_2ngon(5)  # 240 spanning trees
        with pytest.raises(MatroidError, match="exceeds"):
            cover_lp_oracle(g, max_trees=100)
