import itertools
import json
import random
import tracemalloc
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
from modgraph import matroid as matroid_module
from modgraph import simplex
import numpy as np

from modgraph.graphs import GraphError, _ends, bridges, component_count
from modgraph.matroid import (
    CertificateError,
    DensityCertificate,
    _blocks,
    _densities,
    _rank_tables,
    _union,
    _witness,
)
from modgraph.selftest import (
    cap_core_graph,
    dense_core_graph,
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


def k6_graph():
    return graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])


def wheel6_plus_chord():
    rim = [(i, (i + 1) % 6) for i in range(6)]
    return graph(7, rim + [(i, 6) for i in range(6)] + [(0, 3)])


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
        g = cap_core_graph()
        m = CographicMatroid(g)
        table = m.rank_table()
        assert len(table) == 1 << 19
        rng = random.Random(71)
        masks = [0, (1 << 19) - 1] + [rng.getrandbits(19) for _ in range(2000)]
        for mask in masks:
            assert table[mask] == rank_by_components(g, mask)
        assert m.corank(range(19)) == betti(g)

    def test_stacked_rows_match_component_count(self):
        # one (n, e) for the whole stack, loops and parallel edges included
        rng = random.Random(89)
        stack = []
        while len(stack) < 12:
            ends = [tuple(sorted(rng.sample(range(5), 2) if rng.random() < 0.8
                                 else [rng.randrange(5)] * 2))
                    for _ in range(9)]
            try:
                g = graph(5, ends)
            except GraphError:
                continue  # disconnected
            if not bridges(g):
                stack.append(g)
        assert any(g.is_loop(i) for g in stack for i in range(9))
        assert any(len(set(g.edges)) < 9 for g in stack)
        ranks = _rank_tables(5, [_ends(g) for g in stack])
        assert ranks.shape == (12, 1 << 9) and ranks.dtype == np.int8
        for g, row, (m, t0) in zip(stack, ranks, _densities(ranks)):
            matroid = CographicMatroid(g)
            assert (row == matroid.rank_table()).all()
            for mask in range(1 << 9):
                assert row[mask] == rank_by_components(g, mask)
            cert = density(matroid)
            assert (m, t0) == (cert.m, sum(1 << i for i in cert.t0))

    def test_cap_core_as_one_row_stack(self):
        g = cap_core_graph()
        [row] = _rank_tables(g.n_vertices, [_ends(g)])
        rng = random.Random(71)
        masks = [0, (1 << 19) - 1] + [rng.getrandbits(19) for _ in range(2000)]
        for mask in masks:
            assert row[mask] == rank_by_components(g, mask)

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

    def test_largest_products_at_the_edge_cap(self):
        # 20 parallel edges have rank 19: q|S| and p rk(S) reach 20 x 19
        g = Multigraph(((0, 0), (1, 0)), ((0, 1),) * 20)
        cert = density(CographicMatroid(g))
        assert cert.m == Fraction(20, 19)
        assert cert.t0 == frozenset(range(20))

    def test_size_guard(self):
        g = make_ngon(21)
        with pytest.raises(MatroidError, match="capped"):
            density(CographicMatroid(g))

    @staticmethod
    def _brute_densities(ranks):
        """(max Fraction(|S|, rk S) over nonempty S, OR of the masks that
        attain it) for each row of a stack of bridgeless rank tables."""
        e = ranks.shape[1].bit_length() - 1
        masks = np.arange(1 << e)
        sizes = sum(masks >> i & 1 for i in range(e))
        out = []
        for row in ranks.astype(np.int64):
            m = max(Fraction(s, r) for r, s in
                    set(zip(row[1:].tolist(), sizes[1:].tolist())))
            tight = sizes * m.denominator == row * m.numerator
            out.append((m, int(np.bitwise_or.reduce(masks[tight]))))
        return out

    def test_densities_match_brute_force_on_random_stacks(self):
        # stacks of random bridgeless graphs with one (v, e), e <= 12
        rng = random.Random(97)
        for e in range(1, 13):
            v = rng.randint(1, e // 2 + 1)
            stack = []
            while len(stack) < 6:
                ends = [tuple(sorted((rng.randrange(v), rng.randrange(v))))
                        for _ in range(e)]
                try:
                    g = graph(v, ends)
                except GraphError:
                    continue  # disconnected
                if not bridges(g):
                    stack.append(ends)
            ranks = _rank_tables(v, stack)
            assert _densities(ranks) == self._brute_densities(ranks), e

    def test_densities_match_brute_force_at_the_edge_cap(self):
        # one-row tables of the dense core, the cap core and the 20-edge
        # core with 27,204 spanning trees
        tree_core = graph(11, [(1, 0), (2, 0), (3, 2), (4, 3), (5, 3), (6, 0),
                               (7, 1), (8, 0), (9, 5), (10, 8), (2, 1), (5, 7),
                               (2, 10), (6, 7), (9, 4), (10, 9), (10, 6),
                               (5, 8), (2, 4), (2, 3)])
        for g in (dense_core_graph(), cap_core_graph(), tree_core):
            ranks = CographicMatroid(g).rank_table()[None]
            assert _densities(ranks) == self._brute_densities(ranks)

    def test_memory_peak_on_the_dense_core(self):
        # the density scan held int16 products of the whole 2^20 table,
        # 6.0 MiB at its peak; the order-table gather holds less
        matroid = CographicMatroid(dense_core_graph())
        matroid.rank_table()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            density(matroid)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 6 << 20


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

    def test_edge_cap(self):
        # the 20-edge cap holds here through the rank table, which checks it
        banana = CographicMatroid(Multigraph(((0, 0), (1, 0)), ((0, 1),) * 21))
        with pytest.raises(MatroidError, match=(
                r"^ground set has 21 edges; exhaustive scans are capped at 20 "
                r"\(contract the graph first\)$")):
            in_scaled_polytope(banana, [1] * 21, Fraction(21, 20))

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
            (cap_core_graph(), "6", range(18), cap),
            (fractional_witness_graph(), "4/3", [1, 2, 3, 4, 6, 7, 9, 10], frac),
        ]
        for g, c, t0, witness in cases:
            c_found, cert = threshold(g)
            assert str(c_found) == c
            assert sorted(cert.t0) == list(t0)
            assert [str(x) for x in cert.witness] == witness
            assert all(type(x) is Fraction for x in cert.witness)
            assert all(type(x.numerator) is int for x in cert.witness)

    @staticmethod
    def _chain_by_subsets(g, m, masks):
        """(i + 1) + the minimum of m rk(T) - |T| over the masks T in `masks`
        holding the prefix {0..i}, for each i, in Fractions."""
        e = g.n_edges
        pairs = [set() for _ in range(e + 1)]  # by the longest prefix T holds
        for t in masks:
            if ones := (t ^ (t + 1)).bit_length() - 1:
                pairs[ones].add((rank_by_components(g, t), t.bit_count()))
        return [i + 1 + min(m * rank - size for held in pairs[i + 1:]
                            for rank, size in held)
                for i in range(e)]

    def test_prefix_sums_are_the_least_slack_chain(self):
        # w({0..i}) = (i + 1) + min of m rk(T) - |T| over T holding {0..i}:
        # the greedy vertex of that superset minimum, plus the all-ones floor
        rng = random.Random(29)
        cases = [(g, range(1 << g.n_edges)) for g in (
            *(random_bridgeless_multigraph(rng, 6, 10, 10**9) for _ in range(40)),
            make_doubled_2ngon(5), make_doubled_2ngon(6))]
        # the banana's parallel edges are interchangeable, so T may be
        # taken as {0..k-1}, with or without the loop 19
        banana = graph(2, [(0, 1)] * 19 + [(0, 0)])
        cases.append((banana, [(1 << k) - 1 | loop << 19
                               for k in range(20) for loop in (0, 1)]))
        raised = 0
        for g, masks in cases:
            cert = build_witness(CographicMatroid(g))
            sums = list(itertools.accumulate(cert.witness))
            assert sums == self._chain_by_subsets(g, cert.m, masks), g.edges
            raised += any(x > 1 for x in cert.witness)
        assert raised >= 10

    def test_report_is_plain_json(self):
        g = graph(4, fractional_witness_graph().edges + ((2, 3),))
        report = analyze(g).to_json_dict()
        assert report["certificate"]["witness"][0] == "4/3"
        assert json.loads(json.dumps(report)) == report


def separable_cores(seed, count):
    """Bridgeless cores of 2-3 random bridgeless pieces, each glued at one
    vertex to a random vertex of the pieces before it, with the edge ids
    shuffled so that every block's ids interleave with the others'."""
    rng = random.Random(seed)
    for _ in range(count):
        edges, n = [], 1
        for _ in range(rng.randint(2, 3)):
            piece = random_bridgeless_multigraph(rng, 4, 6, 10**9)
            glue = rng.randrange(n)
            index = {v: n + i - 1 if i else glue
                     for i, (v, _) in enumerate(piece.vertices)}
            edges += [(index[a], index[b]) for a, b in piece.edges]
            n += piece.n_vertices - 1
        rng.shuffle(edges)
        yield graph(n, edges)


class TestDirectSum:
    """`density` and `build_witness` split the matroid over its blocks;
    their certificate equals the one-row scans of the whole matroid's
    table."""

    def check(self, g):
        whole = CographicMatroid(g)
        [(m, t0_mask)] = _densities(whole.rank_table()[None])
        t0 = frozenset(i for i in range(g.n_edges) if t0_mask >> i & 1)
        assert density(CographicMatroid(g)) == DensityCertificate(m, t0)
        matroid = CographicMatroid(g)
        cert = build_witness(matroid)
        assert cert == DensityCertificate(m, t0, _witness(whole, m)), g.edges
        assert in_scaled_polytope(whole, cert.witness, m)
        return _blocks(matroid)

    def test_random_separable_cores(self):
        mixed = interleaved = 0
        for g in separable_cores(97, 120):
            assert not bridges(g)
            blocks = self.check(g)
            assert len(blocks) > 1
            mixed += len({density(matroid).m for _, matroid in blocks}) > 1
            interleaved += [i for ids, _ in blocks for i in ids] != list(
                range(g.n_edges))
        assert mixed >= 60 and interleaved >= 60

    def test_named_cores(self):
        for g in (double_triangle_graph(), cap_core_graph(),
                  dense_core_graph()):
            self.check(g)

    def test_one_block_is_its_own_matroid(self):
        for g in (k5_graph(), theta_graph(), make_ngon(4)):
            matroid = CographicMatroid(g)
            [(ids, block)] = _blocks(matroid)
            assert ids == tuple(range(g.n_edges)) and block is matroid

    def test_blocks_found_once(self, monkeypatch):
        # build_witness splits once and reads its density from that split:
        # each of the dense core's two blocks is copied once
        matroid = CographicMatroid(dense_core_graph())
        builds = []
        init = CographicMatroid.__init__

        def counting_init(self, graph):
            builds.append(graph.n_edges)
            init(self, graph)

        monkeypatch.setattr(CographicMatroid, "__init__", counting_init)
        build_witness(matroid)
        assert sorted(builds) == [2, 18]

    def test_blocks_renumber_their_vertices(self):
        # two triangles at vertex 2, a loop at 4: blocks in edge-id order
        g = graph(5, [(2, 3), (0, 1), (3, 4), (1, 2), (4, 4), (2, 0),
                      (4, 2)])
        blocks = _blocks(CographicMatroid(g))
        assert [(ids, m.graph.edges) for ids, m in blocks] == [
            ((0, 2, 6), ((0, 1), (1, 2), (2, 0))),
            ((1, 3, 5), ((0, 1), (1, 2), (2, 0))),
            ((4,), ((0, 0),)),
        ]

    def test_edge_cap_on_the_whole_ground_set(self):
        # the cap core and two more loops at vertex 0: 21 edges in blocks
        # of 18, 1, 1 and 1, each under the cap
        core = cap_core_graph()
        g = Multigraph(core.vertices, core.edges + ((0, 0),) * 2)
        message = (r"^ground set has 21 edges; exhaustive scans are capped "
                   r"at 20 \(contract the graph first\)$")
        for scan in (density, build_witness):
            with pytest.raises(MatroidError, match=message):
                scan(CographicMatroid(g))


def polytope_by_subsets(g, w, t):
    """w in t*P(M) by the definition, one subset at a time, in Fractions."""
    e = g.n_edges
    w, t = [Fraction(x) for x in w], Fraction(t)
    for mask in range(1 << e):
        phi = sum(w[i] for i in range(e) if mask >> i & 1)
        cap = t * rank_by_components(g, mask)
        if not 0 <= phi <= cap or (mask == (1 << e) - 1 and phi != cap):
            return False
    return True


class TestNarrowTables:
    """Rank tables are int8, the density and witness products int16; a
    product that lost its dtype would wrap on the 20-edge banana, where
    p rk(S) reaches 20 x 19 = 380."""

    def test_banana_at_the_edge_cap(self):
        g = graph(2, [(0, 1)] * 20)
        matroid = CographicMatroid(g)
        table = matroid.rank_table()
        assert table.dtype == np.int8
        assert table[-1] == 19 and table[(1 << 19) - 1] == 19
        cert = build_witness(matroid)
        assert cert.m == Fraction(20, 19) and cert.t0 == frozenset(range(20))
        assert cert.witness == (1,) * 20
        inside = (Fraction(20, 19), Fraction(18, 19), *[1] * 18)
        assert in_scaled_polytope(matroid, inside, cert.m)
        assert not in_scaled_polytope(matroid, (2, 0, *[1] * 18), cert.m)
        report = analyze(g)
        assert report.c == Fraction(20, 19)
        assert report.certificate == cert and report.contracted_edges == ()

    def test_witness_rounds_at_the_edge_cap(self):
        # 19 parallel edges (rank 18) and a loop: m = 19/18, and the loop's
        # coordinate rises by a slack of 1 out of slacks up to 19 x 19
        g = graph(2, [(0, 1)] * 19 + [(0, 0)])
        matroid = CographicMatroid(g)
        cert = build_witness(matroid)
        assert cert.m == Fraction(19, 18) and cert.t0 == frozenset(range(19))
        assert cert.witness == (1,) * 19 + (Fraction(19, 18),)
        assert analyze(g).certificate == cert

    def test_single_edge_tables(self):
        # a loop is a coloop of the cographic matroid; a lone link a bridge
        assert _rank_tables(1, [[(0, 0)]]).tolist() == [[0, 1]]
        assert _rank_tables(2, [[(0, 1)], [(1, 0)]]).tolist() == [[0, 0]] * 2
        loop = CographicMatroid(graph(1, [(0, 0)]))
        assert loop.rank_table().dtype == np.int8
        cert = build_witness(loop)
        assert (cert.m, cert.t0, cert.witness) == (1, frozenset({0}), (1,))

    def test_union_is_or_of_selected_masks(self):
        rng = np.random.default_rng(97)
        for rows, e in ((1, 1), (3, 2), (5, 7), (2, 12)):
            for density_ in (0.0, 0.001, 0.05, 0.5):
                selected = rng.random((rows, 1 << e)) < density_
                expected = [
                    int(np.bitwise_or.reduce(np.flatnonzero(row), initial=0))
                    for row in selected
                ]
                assert _union(selected).tolist() == expected

    @pytest.mark.parametrize("bound, dtype", [
        (2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32),
        (2**31, np.int64), (2**63 - 1, np.int64), (2**63, object),
    ])
    def test_polytope_dtype_from_bound(self, monkeypatch, bound, dtype):
        # one loop has rank 1, so w = t = bound scales to ints of size bound
        loop = CographicMatroid(graph(1, [(0, 0)]))
        loop.rank_table()
        seen = []
        real = matroid_module._subset_sums
        monkeypatch.setattr(matroid_module, "_subset_sums",
                            lambda values, d: seen.append(d) or real(values, d))
        assert in_scaled_polytope(loop, (bound,), bound)
        assert not in_scaled_polytope(loop, (bound - 1,), bound)
        assert not in_scaled_polytope(loop, (-bound,), -bound)
        assert seen == [dtype] * 3

    @pytest.mark.parametrize("scale, dtype", [
        (1, np.int16), (10**5, np.int32), (10**9, np.int64), (10**19, object),
    ])
    def test_polytope_matches_subset_check(self, monkeypatch, scale, dtype):
        # points of t*P(M) as sums of bases, then moved along w_i - w_j
        graphs = [k4_graph(), theta_graph(), double_triangle_graph()]
        tables = [(g, CographicMatroid(g)) for g in graphs]
        for _, matroid in tables:
            matroid.rank_table()
        seen = []
        real = matroid_module._subset_sums
        monkeypatch.setattr(matroid_module, "_subset_sums",
                            lambda values, d: seen.append(d) or real(values, d))
        rng = random.Random(101)
        verdicts = []
        for g, matroid in tables:
            table = matroid.rank_table()
            b = int(table[-1])
            bases = [mask for mask in range(1 << g.n_edges)
                     if bin(mask).count("1") == b == table[mask]]
            for _ in range(12):
                counts = [rng.randrange(4) for _ in bases]
                if not any(counts):
                    continue
                t = sum(counts)
                w = [sum(c for c, mask in zip(counts, bases) if mask >> i & 1)
                     for i in range(g.n_edges)]
                i, j = rng.sample(range(g.n_edges), 2)
                d = rng.choice([0, 0, 1, Fraction(1, 3), 2 * t])
                w[i] += d
                w[j] -= d
                denom = rng.choice([1, 7])
                w = [Fraction(x * scale, denom) for x in w]
                t = Fraction(t * scale, denom)
                verdict = in_scaled_polytope(matroid, w, t)
                assert verdict == polytope_by_subsets(g, w, t), (g.edges, w, t)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts
        assert set(seen) == {dtype}

    def test_analyze_memory_peak_on_the_cap_core(self):
        # numpy reports its buffers to tracemalloc; the int64 tables of the
        # 19-edge core peaked at 17.1 MB
        g = cap_core_graph()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            analyze(g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 8 * 10**6


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

    def test_doubled_decagon(self):
        # 240 spanning trees; a tree guard of 100 once refused this graph.
        assert cover_lp_oracle(make_doubled_2ngon(5)) == 5

    @pytest.mark.parametrize("make", [
        k6_graph,
        wheel6_plus_chord,
        lambda: make_doubled_2ngon(6),
        cap_core_graph,
        lambda: graph(12, make_doubled_2ngon(6).edges + ((0, 0), (5, 5))),
        dense_core_graph,
        lambda: graph(2, [(0, 1)] * 20),
        lambda: graph(2, [(0, 1)] * 19 + [(0, 0)]),
    ], ids=["K6", "W6+chord", "D6", "cap19", "cap20", "dense20", "banana20",
            "banana19+loop"])
    def test_beyond_the_old_tree_guard(self, make):
        # K6 has 1,296 spanning trees, W6+chord 576 and the dense core
        # 10,122; the LP lists none.  The bananas (m = 20/19 and 19/18)
        # are the most degenerate masters at the edge cap.
        g = make()
        assert cover_lp_oracle(g) == density(CographicMatroid(g)).m

    @pytest.mark.parametrize("make, value, pivots", [
        (k4_graph, 2, 28),
        (k5_graph, Fraction(5, 3), 91),
        (k6_graph, Fraction(3, 2), 225),
        (wheel6_plus_chord, Fraction(13, 7), 99),
        (cap_core_graph, 6, 412),
        (dense_core_graph, 2, 79),
    ], ids=["K4", "K5", "K6", "W6+chord", "cap19", "dense20"])
    def test_frozen_pivot_counts(self, monkeypatch, make, value, pivots):
        # Recorded over the Fraction tableau: the integer one must take the
        # same Bland path, pivot for pivot.
        count = 0
        pivot = simplex._pivot

        def counted(*args):
            nonlocal count
            count += 1
            return pivot(*args)

        monkeypatch.setattr(simplex, "_pivot", counted)
        assert cover_lp_oracle(make()) == value
        assert count == pivots

    def test_edgeless_graph_raises(self):
        for g in (Multigraph(((0, 0),), ()), Multigraph(((0, 2),), ())):
            with pytest.raises(MatroidError, match="empty ground set"):
                cover_lp_oracle(g)
            with pytest.raises(MatroidError, match="empty ground set"):
                density(CographicMatroid(g))

    def test_independent_of_other_routes(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the covering LP read another route")

        for name in ("spanning_trees", "lex_first_spanning_tree"):
            monkeypatch.setattr(f"modgraph.graphs.{name}", forbidden)
        for name in ("density", "build_witness", "in_scaled_polytope"):
            monkeypatch.setattr(f"modgraph.matroid.{name}", forbidden)
        monkeypatch.setattr(CographicMatroid, "rank_table", forbidden)
        monkeypatch.setattr("modgraph.kirchhoff.psi_det", forbidden)
        monkeypatch.setattr("modgraph.kirchhoff.psi_trees", forbidden)
        assert cover_lp_oracle(k5_graph()) == Fraction(5, 3)

    def test_corrupted_dual_raises(self, monkeypatch):
        solve = simplex.minimize

        def scaled_dual(*args):
            value, x, y = solve(*args)
            return value, x, [yi * Fraction(8, 7) for yi in y]

        monkeypatch.setattr(simplex, "minimize", scaled_dual)
        with pytest.raises(CertificateError):
            cover_lp_oracle(k5_graph())
