import gc
import itertools
import random
from fractions import Fraction

import pytest

from modgraph import (
    CographicMatroid,
    GraphError,
    Multigraph,
    betti,
    bridges,
    contract_edges,
    cycle_basis_from_tree,
    delete_edges,
    fundamental_cycle_basis,
    genus,
    is_stable,
    make_doubled_2ngon,
    parse_graph,
    spanning_trees,
    valences,
)
from modgraph.graphs import (
    _components,
    _cycle_columns,
    _ends,
    _forest,
    _kruskal,
    _reduce,
    component_count,
)
from modgraph.selftest import (
    random_bridgeless_multigraph,
    random_connected_multigraph,
    small_connected_multigraphs,
    theta_graph,
)

from helpers import cap_graph, gf2_rank


def laplacian_tree_count(g):
    """Independent Matrix-Tree oracle: determinant of the reduced Laplacian."""
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    n = g.n_vertices
    lap = [[Fraction(0)] * n for _ in range(n)]
    for t, h in g.edges:
        i, j = index[t], index[h]
        if i == j:
            continue
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for r in range(k + 1, size):
            factor = m[r][k] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    assert det.denominator == 1
    return int(det)


def incidence_matrix(g):
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    mat = [[0] * g.n_edges for _ in range(g.n_vertices)]
    for eid, (t, h) in enumerate(g.edges):
        if t == h:
            continue
        mat[index[t]][eid] -= 1
        mat[index[h]][eid] += 1
    return mat


class TestParse:
    def test_text_triangle(self):
        g = parse_graph("0 1\n1 2\n2 0")
        assert g.n_vertices == 3 and g.n_edges == 3
        assert betti(g) == 1

    def test_json_loop(self):
        g = parse_graph('{"edges": [[0, 0]]}')
        assert g.n_vertices == 1 and g.n_edges == 1
        assert betti(g) == 1

    def test_json_with_genus(self):
        g = parse_graph(
            '{"vertices": [{"id": 5, "genus": 2}, {"id": 7}],'
            ' "edges": [[5, 7], [7, 5]]}'
        )
        assert g.genus_of() == {5: 2, 7: 0}
        assert genus(g) == 1 + 2

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            parse_graph("0 1\n2 3")

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(GraphError, match="dangling"):
            parse_graph('{"vertices": [{"id": 0}], "edges": [[0, 1]]}')

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_graph("0 1\n1 2 3")

    def test_malformed_json(self):
        with pytest.raises(GraphError, match="JSON"):
            parse_graph("{not json")

    def test_empty_input(self):
        with pytest.raises(GraphError):
            parse_graph("   \n  ")

    def test_roundtrip_json_dict(self):
        g = theta_graph()
        assert parse_graph(__import__("json").dumps(g.to_json_dict())) == g


class TestBasics:
    def test_betti_examples(self):
        assert betti(parse_graph("0 1\n1 2\n2 0")) == 1
        assert betti(theta_graph()) == 2
        assert betti(parse_graph('{"edges": [[0, 0]]}')) == 1

    def test_genus_examples(self):
        p3 = parse_graph(
            '{"vertices": [{"id": 0, "genus": 2}, {"id": 1}, {"id": 2}],'
            ' "edges": [[0, 1], [1, 2], [2, 0]]}'
        )
        assert genus(p3) == 3
        lone = Multigraph(((0, 0),), ())
        assert genus(lone) == 0

    def test_bridges_examples(self):
        assert bridges(parse_graph("0 1\n1 2\n2 0")) == frozenset()
        assert bridges(parse_graph("0 1\n1 2")) == frozenset({0, 1})
        two_triangles = parse_graph("0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3")
        assert bridges(two_triangles) == frozenset({3})

    def test_loops_never_bridges(self):
        g = parse_graph("0 0\n0 1\n1 1\n0 1")
        assert bridges(g) == frozenset()

    def test_component_count(self):
        from modgraph.graphs import component_count

        g = parse_graph("0 1\n1 2\n2 0")
        assert component_count(g) == 1
        assert component_count(g, {0}) == 1
        assert component_count(g, {0, 1}) == 2
        assert component_count(g, {0, 1, 2}) == 3

    def test_stability(self):
        # two loop-decorated vertices joined by an edge: valences 3, 3
        g = parse_graph("0 0\n0 1\n1 1")
        assert is_stable(g)
        assert not is_stable(parse_graph("0 1\n1 2\n2 0"))  # valence 2
        assert not is_stable(Multigraph(((0, 1),), ()))  # genus 1 isolated
        assert is_stable(Multigraph(((0, 2),), ()))  # genus 2 isolated
        assert valences(parse_graph("0 0\n0 1"))[0] == 3

    @pytest.mark.parametrize("vertices,edges", [
        (((0.7, 0), (1, 0.9)), ((0, 1),)),
        (((0, 2.5),), ()),
        ((("1", 0), (2, 0)), (("1", 2),)),
        (((0, 0), (1, 0)), ((True, 1),)),
        (((0, False),), ()),
        (((0, 0), (1, 0)), ((0, 1, 1),)),
        (((0,),), ()),
    ])
    def test_non_integer_values_raise(self, vertices, edges):
        with pytest.raises(GraphError, match="not a pair of ints"):
            Multigraph(vertices, edges)

    def test_caller_pairs_kept(self):
        vertices = ((0, 0), (1, 2))
        edges = ((0, 1), (1, 1), (0, 1))
        g = Multigraph(vertices, edges)
        assert g.vertices is vertices and g.edges is edges
        listed = Multigraph([[0, 0], [1, 0]], [[0, 1]])
        assert listed.vertices == ((0, 0), (1, 0)) and listed.edges == ((0, 1),)

    def test_int_subclasses_accepted(self):
        # only bool, of the int subclasses, is refused (as in JSON input)
        class Label(int):
            pass

        g = Multigraph(((Label(0), 0), (1, Label(2))), ((Label(0), 1),))
        assert g.vertices == ((0, 0), (1, 2)) and genus(g) == 2


class TestContract:
    def test_contract_p3_edge(self):
        g = parse_graph("0 1\n1 2\n2 0")
        out, emap = contract_edges(g, {0})
        assert out.n_vertices == 2 and out.n_edges == 2
        assert betti(out) == betti(g)
        assert emap == {1: 0, 2: 1}

    def test_contract_empty(self):
        g = theta_graph()
        out, emap = contract_edges(g, set())
        assert out.edges == ((0, 1), (0, 1), (0, 1))
        assert emap == {0: 0, 1: 1, 2: 2}

    def test_contract_doubled_square_single_sides(self):
        from modgraph import make_doubled_2ngon

        g = make_doubled_2ngon(2)
        # edges: cycle (0,1),(1,2),(2,3),(3,0) then duplicates of sides 0 and 2
        singles = {1, 3}
        out, _ = contract_edges(g, singles)
        assert out.n_edges == 4
        assert out.n_vertices == 2
        assert betti(out) == 3

    def test_contract_loop_rejected(self):
        g = parse_graph("0 0\n0 1\n0 1")
        with pytest.raises(GraphError, match="loop"):
            contract_edges(g, {0})

    def test_contract_merges_genus(self):
        g = parse_graph(
            '{"vertices": [{"id": 0, "genus": 1}, {"id": 1, "genus": 2}],'
            ' "edges": [[0, 1], [0, 1]]}'
        )
        out, _ = contract_edges(g, {0})
        assert out.vertices == ((0, 3),)
        assert out.edges == ((0, 0),)

    def test_betti_drop_matches_contracted_cycles(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected_multigraph(rng, 5, 8)
            non_loops = [e for e in range(g.n_edges) if not g.is_loop(e)]
            k = rng.randint(0, len(non_loops))
            subset = frozenset(rng.sample(non_loops, k))
            sub_edges = tuple(g.edges[e] for e in sorted(subset))
            sub_vertices = tuple(
                (v, 0) for v in sorted({x for pair in sub_edges for x in pair})
            )
            if not subset:
                continue
            # betti of the contracted subgraph, component by component
            comp_b = _subgraph_betti(sub_vertices, sub_edges)
            out, _ = contract_edges(g, subset)
            assert betti(out) == betti(g) - comp_b

    def test_frozen_renumbering(self):
        cases = _contraction_cases()
        assert len(cases) == len(FROZEN_CONTRACTIONS)
        for (g, contracted), (sums, edges, new_ids) in zip(
            cases, FROZEN_CONTRACTIONS
        ):
            out, emap = contract_edges(g, contracted)
            assert out.vertices == tuple(enumerate(sums))
            assert out.edges == edges
            assert emap == {
                old: new for old, new in enumerate(new_ids) if new is not None
            }

    def test_delete_edges_keeps_vertices(self):
        g = parse_graph("0 0\n0 1\n0 1")
        out, emap = delete_edges(g, {0})
        assert out.n_vertices == 2 and out.n_edges == 2
        assert emap == {1: 0, 2: 1}

    def test_delete_disconnecting_rejected(self):
        g = parse_graph("0 1\n1 2")
        with pytest.raises(GraphError, match="disconnected"):
            delete_edges(g, {0})


def _contraction_cases():
    """30 seeded contractions on graphs with 3+ vertices, non-contiguous
    shuffled vertex ids, nonzero genera and a random loop-free edge set."""
    rng = random.Random(41)
    cases = []
    while len(cases) < 30:
        base = random_connected_multigraph(rng, 7, 10)
        if base.n_vertices < 3:
            continue
        ids = rng.sample(range(10, 60), base.n_vertices)
        order = list(range(base.n_vertices))
        rng.shuffle(order)
        vertices = tuple((ids[i], rng.randrange(3)) for i in order)
        g = Multigraph(vertices, tuple((ids[t], ids[h]) for t, h in base.edges))
        contracted = frozenset(
            e for e in range(g.n_edges) if not g.is_loop(e) and rng.random() < 0.3
        )
        cases.append((g, contracted))
    return cases


# contract_edges on _contraction_cases(), one row per case: the genus sum of
# each quotient vertex 0, 1, ..., the quotient edges, and the new id of each
# input edge (None when contracted).  Pins the renumbering of the quotient.
FROZEN_CONTRACTIONS = [
    ((5,), ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
     (0, 1, 2, None, None, 3, None, 4)),
    ((2, 0, 2), ((0, 0), (0, 2), (1, 1), (0, 0), (0, 1), (0, 0)),
     (0, 1, 2, 3, 4, None, 5)),
    ((0, 1, 2, 2, 0, 1), ((5, 3), (0, 3), (2, 1), (4, 5), (4, 4), (1, 4), (4, 3)),
     (0, 1, 2, 3, 4, 5, 6)),
    ((0, 1, 1), ((0, 0), (1, 0), (0, 0), (1, 0), (1, 2), (0, 0), (0, 0)),
     (0, 1, 2, 3, None, 4, 5, 6, None)),
    ((2, 4, 0), ((0, 1), (2, 2), (2, 1), (2, 2), (0, 1)),
     (0, 1, None, None, 2, 3, 4)),
    ((3, 2), ((0, 0), (1, 0), (1, 1), (1, 0)), (0, None, 1, None, 2, 3)),
    ((1, 0, 0, 2), ((3, 0), (0, 0), (2, 0), (3, 2), (1, 3)), (0, 1, 2, 3, 4)),
    ((2, 4, 2), ((0, 1), (1, 1), (1, 1), (1, 1), (1, 2)),
     (0, None, None, 1, None, 2, 3, 4, None)),
    ((1, 2, 3), ((2, 1), (1, 1), (2, 0), (1, 2)), (0, 1, None, 2, 3, None)),
    ((5,), ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
     (0, None, 1, 2, 3, 4, None, None)),
    ((2, 0, 2), ((0, 0), (2, 1), (2, 0), (1, 1)), (0, 1, 2, 3)),
    ((1, 2, 1, 1, 1),
     ((1, 1), (3, 0), (0, 3), (0, 1), (3, 1), (2, 1), (0, 1), (4, 0)),
     (0, 1, 2, 3, 4, 5, None, 6, 7)),
    ((2, 0, 2), ((2, 1), (0, 2)), (0, 1)),
    ((4, 1), ((0, 0), (0, 0), (0, 1), (1, 1)), (None, None, None, 0, 1, 2, 3)),
    ((3, 2, 2, 0, 1), ((4, 2), (3, 0), (0, 2), (3, 1), (2, 0)),
     (0, None, 1, 2, 3, 4)),
    ((1, 5), ((0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1)),
     (0, 1, 2, None, 3, None, 4, None, 5, None)),
    ((1, 0, 0, 1, 2, 1), ((5, 3), (3, 4), (1, 0), (2, 3), (0, 2)),
     (0, None, 1, 2, 3, 4)),
    ((3, 2, 0), ((1, 2), (1, 1), (0, 0), (0, 0), (1, 0)),
     (0, 1, 2, 3, None, None, 4, None)),
    ((0, 0, 4), ((2, 2), (0, 2), (2, 2), (0, 0), (2, 2), (2, 1), (2, 0)),
     (0, 1, None, 2, 3, 4, 5, None, 6)),
    ((4, 2, 2), ((2, 0), (2, 0), (0, 0), (0, 1), (2, 0)),
     (0, None, None, None, 1, 2, 3, None, 4)),
    ((2,), ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
     (0, None, 1, None, 2, 3, 4, None, 5)),
    ((1,), ((0, 0), (0, 0)), (0, None, None, 1, None, None)),
    ((3,), ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
     (0, 1, 2, None, 3, None, 4, 5, None)),
    ((2, 2, 0), ((2, 0), (1, 1), (0, 0), (1, 1), (1, 1), (2, 1)),
     (0, 1, 2, 3, 4, 5)),
    ((3, 2, 0), ((0, 0), (0, 0), (0, 2), (0, 2), (1, 1), (0, 0), (1, 0), (0, 1)),
     (0, 1, 2, 3, 4, 5, None, 6, None, 7)),
    ((0, 2, 0, 2, 1),
     ((3, 0), (3, 2), (0, 3), (0, 1), (1, 1), (1, 3), (3, 3), (4, 3), (4, 0),
      (1, 3)),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    ((0, 0, 1), ((0, 1), (0, 2)), (None, 0, 1, None, None, None)),
    ((4, 1, 1, 1), ((1, 0), (3, 1), (2, 0), (0, 3), (0, 3), (0, 1), (2, 1)),
     (None, 0, 1, 2, 3, 4, None, 5, 6)),
    ((4, 0, 2), ((2, 0), (0, 2), (1, 0), (0, 1), (0, 0)),
     (0, 1, None, None, 2, None, 3, None, None, 4)),
    ((1, 3, 2, 2), ((2, 1), (1, 3), (1, 0), (2, 0)), (0, 1, None, 2, None, 3, None)),
]


def _subgraph_betti(vertices, edges):
    if not vertices:
        return 0
    index = {v: i for i, (v, _) in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = len(vertices)
    for t, h in edges:
        a, b = find(index[t]), find(index[h])
        if a != b:
            parent[a] = b
            comps -= 1
    return len(edges) - len(vertices) + comps


class TestSpanningTrees:
    def test_p3(self):
        trees = spanning_trees(parse_graph("0 1\n1 2\n2 0"))
        assert trees == [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]

    def test_theta(self):
        assert spanning_trees(theta_graph()) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_single_loop(self):
        assert spanning_trees(parse_graph('{"edges": [[0, 0]]}')) == [frozenset()]

    def test_count_matches_matrix_tree(self):
        for g in small_connected_multigraphs(5):
            assert len(spanning_trees(g)) == laplacian_tree_count(g)

    def test_count_matches_matrix_tree_random(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_multigraph(rng, 6, 9)
            assert len(spanning_trees(g)) == laplacian_tree_count(g)

    def test_matches_subset_enumeration_in_order(self):
        # every (v-1)-subset that connects the graph, in lexicographic order
        rng = random.Random(23)
        for _ in range(30):
            g = random_connected_multigraph(rng, 5, 8)
            everything = frozenset(range(g.n_edges))
            expected = [
                frozenset(c)
                for c in itertools.combinations(range(g.n_edges), g.n_vertices - 1)
                if component_count(g, everything - frozenset(c)) == 1
            ]
            assert spanning_trees(g) == expected

    def test_leaves_no_reference_cycles(self):
        g = make_doubled_2ngon(4)
        gc.collect()
        gc.disable()
        try:
            assert len(spanning_trees(g)) == 96
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_matches_matrix_tree_at_edge_cap(self):
        # the 20-edge cap graph has a loop and a pendant bridge
        g = cap_graph()
        assert len(spanning_trees(g)) == laplacian_tree_count(g) == 432
        d6 = make_doubled_2ngon(6)
        g = Multigraph(d6.vertices, d6.edges + ((0, 0), (3, 3)))
        assert g.n_edges == 20
        assert len(spanning_trees(g)) == laplacian_tree_count(g) == 576

    def test_kruskal_on_weight_order_is_minimum(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_connected_multigraph(rng, 6, 10)
            weight = [rng.randint(1, 5) for _ in range(g.n_edges)]
            order = sorted(range(g.n_edges), key=lambda i: (weight[i], i))
            tree = _kruskal(g, order)
            trees = spanning_trees(g)
            assert tree in trees
            assert sum(weight[i] for i in tree) == min(
                sum(weight[i] for i in t) for t in trees
            )

    def test_reduce_keeps_a_pivot_indexed_basis(self):
        # _reduce grows the basis exactly when x is outside the span, and
        # every nonzero entry sits at its own leading bit
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 8)
            basis, span = (0,) * n, {0}
            for _ in range(rng.randint(1, 12)):
                x = rng.randrange(1 << n)
                grown = _reduce(x, basis)
                assert (grown is None) == (x in span), (basis, x)
                if grown is not None:
                    assert len(grown) == n
                    assert all(y.bit_length() == i + 1
                               for i, y in enumerate(grown) if y)
                    span |= {y ^ x for y in span}
                    basis = grown

    def test_trees_have_size_v_minus_1_and_no_loops(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_connected_multigraph(rng, 5, 8)
            for tree in spanning_trees(g):
                assert len(tree) == g.n_vertices - 1
                assert not any(g.is_loop(e) for e in tree)

    def test_bridges_lie_in_every_tree(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_multigraph(rng, 6, 8)
            trees = spanning_trees(g)
            in_all = frozenset.intersection(*trees) if trees else frozenset()
            assert bridges(g) == in_all

    def test_bridge_contraction_keeps_betti_and_is_bridgeless(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_connected_multigraph(rng, 6, 8)
            core, _ = contract_edges(g, bridges(g))
            assert betti(core) == betti(g)
            assert bridges(core) == frozenset()


class TestCycleBasis:
    def test_p3_row(self):
        basis = fundamental_cycle_basis(parse_graph("0 1\n1 2\n2 0"))
        assert basis.cycles == ((1, 1, 1),)
        assert basis.tree == frozenset({0, 1})

    def test_theta_rows(self):
        basis = fundamental_cycle_basis(theta_graph())
        assert basis.tree == frozenset({0})
        assert basis.cycles == ((-1, 1, 0), (-1, 0, 1))

    def test_single_loop_row(self):
        basis = fundamental_cycle_basis(parse_graph('{"edges": [[0, 0]]}'))
        assert basis.cycles == ((1,),)

    def test_rows_in_incidence_kernel(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_multigraph(rng, 6, 9)
            basis = fundamental_cycle_basis(g)
            assert len(basis.cycles) == betti(g)
            inc = incidence_matrix(g)
            for row in basis.cycles:
                for vrow in inc:
                    assert sum(a * b for a, b in zip(vrow, row)) == 0

    def test_plus_one_at_defining_edge(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_connected_multigraph(rng, 5, 8)
            basis = fundamental_cycle_basis(g)
            non_tree = [e for e in range(g.n_edges) if e not in basis.tree]
            for row, eid in zip(basis.cycles, non_tree):
                assert row[eid] == 1

    @pytest.mark.parametrize("tree", [set(), {0, 1}, {0, 1, 2}, {5}])
    def test_rejects_non_trees_on_theta(self, tree):
        with pytest.raises(GraphError):
            cycle_basis_from_tree(theta_graph(), frozenset(tree))

    def test_rejects_v_minus_1_edges_with_a_cycle(self):
        g = parse_graph("0 1\n0 1\n1 2\n2 3")
        with pytest.raises(GraphError, match="closes a cycle"):
            cycle_basis_from_tree(g, frozenset({0, 1, 2}))
        assert len(cycle_basis_from_tree(g, frozenset({1, 2, 3})).cycles) == 1

    def test_every_tree_row_is_its_fundamental_cycle(self):
        # in the incidence kernel, +1 at its own non-tree edge and 0 at the
        # others: a kernel vector zero off the tree is zero, so these fix
        # the row; every (v-1)-subset that is not a tree is refused
        rng = random.Random(47)
        checked = refused = 0
        for _ in range(40):
            g = random_connected_multigraph(rng, 7, 10)
            inc = incidence_matrix(g)
            trees = set(spanning_trees(g))
            everything = frozenset(range(g.n_edges))
            for combo in itertools.combinations(everything, g.n_vertices - 1):
                listed = frozenset(combo)
                if listed not in trees:
                    with pytest.raises(GraphError, match="closes a cycle") as err:
                        cycle_basis_from_tree(g, listed)
                    eid = int(err.value.args[0].split()[2])
                    # the other listed edges already join its endpoints
                    assert eid in listed
                    assert (component_count(g, everything - listed)
                            == component_count(g, everything - listed | {eid}))
                    refused += 1
                    continue
                basis = cycle_basis_from_tree(g, listed)
                non_tree = sorted(everything - listed)
                assert basis.tree == listed
                assert len(basis.cycles) == len(non_tree) == betti(g)
                for row, own in zip(basis.cycles, non_tree):
                    for vrow in inc:
                        assert sum(a * b for a, b in zip(vrow, row)) == 0
                    assert [row[k] for k in non_tree] == [
                        int(k == own) for k in non_tree]
                checked += 1
        assert checked > 200 and refused > 1000

    def test_alternate_tree_basis(self):
        g = theta_graph()
        basis = cycle_basis_from_tree(g, frozenset({2}))
        assert len(basis.cycles) == 2
        inc = incidence_matrix(g)
        for row in basis.cycles:
            for vrow in inc:
                assert sum(a * b for a, b in zip(vrow, row)) == 0


def brute_labels(n_vertices, ends):
    """Each vertex's smallest reachable vertex, relaxed to a fixed point,
    then renumbered 0, 1, ... in increasing order."""
    low = list(range(n_vertices))
    changed = True
    while changed:
        changed = False
        for a, b in ends:
            m = min(low[a], low[b])
            if low[a] != m or low[b] != m:
                low[a] = low[b] = m
                changed = True
    rank = {m: i for i, m in enumerate(sorted(set(low)))}
    return [rank[m] for m in low]


class TestForest:
    def test_labels_and_tree_on_disconnected_edge_sets(self):
        rng = random.Random(53)
        cases = [(1, []), (3, []), (2, [(0, 0), (1, 1)])]
        for _ in range(300):
            v = rng.randint(1, 9)
            cases.append((v, [(rng.randrange(v), rng.randrange(v))
                              for _ in range(rng.randint(0, 8))]))
        for v, ends in cases:
            order, parent_edge, label = _forest(v, ends)
            assert label == brute_labels(v, ends), (v, ends)
            assert sorted(order) == list(range(v))
            # roots are the smallest vertices of their components, in order;
            # every other vertex hangs from a vertex visited before it
            roots = [x for x in order if parent_edge[x] < 0]
            assert roots == [label.index(c) for c in range(max(label) + 1)]
            seen = set()
            for y in order:
                if parent_edge[y] >= 0:
                    a, b = ends[parent_edge[y]]
                    assert y in (a, b) and a != b
                    assert (b if a == y else a) in seen
                seen.add(y)


def kernel_corpus():
    """Every connected multigraph with <= 5 edges, then 30 seeded random
    connected multigraphs with <= 12 edges; vertex ids are 0..v-1."""
    yield from small_connected_multigraphs(5)
    rng = random.Random(31)
    for _ in range(30):
        yield random_connected_multigraph(rng, 8, 12)


class TestCycleColumns:
    def test_zero_columns_are_bridges(self):
        for g in kernel_corpus():
            cols = _cycle_columns(g.edges, g.n_vertices)
            zero = {k for k, col in enumerate(cols) if col == 0}
            cut = {
                eid for eid in range(g.n_edges)
                if not g.is_loop(eid) and component_count(g, {eid}) > 1
            }
            assert zero == cut, g.edges
            assert bridges(g) == cut

    def test_equal_columns_are_two_cuts(self):
        for g in kernel_corpus():
            cols = _cycle_columns(g.edges, g.n_vertices)
            for i in range(g.n_edges):
                for j in range(i + 1, g.n_edges):
                    if not cols[i] or not cols[j]:
                        continue  # a bridge cuts with any partner
                    two_cut = component_count(g, {i, j}) > 1
                    assert (cols[i] == cols[j]) == two_cut, (g.edges, i, j)

    def test_gf2_rank_is_cographic_rank(self):
        rng = random.Random(37)
        bridgeless = [
            g for g in kernel_corpus() if betti(g) > 0 and not bridges(g)
        ] + [random_bridgeless_multigraph(rng, 8, 12, 10**9) for _ in range(30)]
        checked = 0
        for g in bridgeless:
            cols = _cycle_columns(g.edges, g.n_vertices)
            table = CographicMatroid(g).rank_table()
            for mask in range(1 << g.n_edges):
                picked = [c for k, c in enumerate(cols) if mask >> k & 1]
                assert gf2_rank(picked) == table[mask], (g.edges, mask)
            checked += 1
        assert checked == len(bridgeless) > 120

    def test_columns_are_b_bits_wide(self):
        for g in kernel_corpus():
            cols = _cycle_columns(g.edges, g.n_vertices)
            assert max(cols, default=0).bit_length() <= betti(g), g.edges
        # one cycle: one bit, wherever the BFS leaves its non-tree edge
        n = 2000
        ring = tuple((k, (k + 1) % n) for k in range(n))
        assert _cycle_columns(ring, n) == [1] * n

    def test_none_exactly_when_disconnected(self):
        for g in kernel_corpus():
            for eid in range(g.n_edges):
                ends = g.edges[:eid] + g.edges[eid + 1:]
                split = component_count(g, {eid}) > 1
                assert (_cycle_columns(ends, g.n_vertices) is None) == split
        assert _cycle_columns((), 2) is None
        assert _cycle_columns(((0, 0), (1, 1)), 2) is None
        assert _cycle_columns((), 1) == []  # edgeless but connected


class TestComponents:
    """`_components` of the cycle columns against a circuit oracle: edges
    i != j share a matroid component exactly when some circuit holds both
    (Oxley, "Matroid Theory", 2nd ed., Prop. 4.1.2).  The circuits are
    those of the graphic matroid, which has the cographic matroid's
    components: minimal sets whose cut vectors are dependent."""

    @staticmethod
    def circuit_classes(g):
        e = g.n_edges
        cuts = [(1 << a) ^ (1 << b) for a, b in _ends(g)]
        rank = [gf2_rank([cuts[i] for i in range(e) if mask >> i & 1])
                for mask in range(1 << e)]
        together = [[i == j for j in range(e)] for i in range(e)]
        for mask in range(1, 1 << e):
            size = mask.bit_count()
            members = [i for i in range(e) if mask >> i & 1]
            if rank[mask] == size - 1 and all(
                    rank[mask ^ (1 << i)] == size - 1 for i in members):
                for i in members:
                    for j in members:
                        together[i][j] = True
        return together

    def test_matches_circuit_oracle(self):
        rng = random.Random(41)
        graphs = [random_connected_multigraph(rng, 6, 9) for _ in range(150)]
        # two triangles at a cut vertex, with a loop, a digon and a bridge
        graphs.append(parse_graph("0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n"
                                  "4 4\n4 5\n5 6\n5 6"))
        seen = {"loop": 0, "parallel": 0, "bridge": 0, "separable": 0}
        for g in graphs:
            classes = _components(_cycle_columns(_ends(g), g.n_vertices))
            assert sorted(i for ids in classes for i in ids) == list(
                range(g.n_edges))
            assert classes == sorted(classes)
            assert all(list(ids) == sorted(ids) for ids in classes)
            label = {i: k for k, ids in enumerate(classes) for i in ids}
            together = self.circuit_classes(g)
            for i in range(g.n_edges):
                for j in range(g.n_edges):
                    assert (label[i] == label[j]) == together[i][j], (
                        g.edges, i, j)
            seen["loop"] += any(g.is_loop(k) for k in range(g.n_edges))
            seen["parallel"] += len(set(g.edges)) < g.n_edges
            seen["bridge"] += bool(bridges(g))
            seen["separable"] += sum(len(ids) > 1 for ids in classes) > 1
        assert min(seen.values()) >= 10, seen

    def test_loops_and_zero_columns_stand_alone(self):
        assert _components([]) == []
        assert _components([0, 0]) == [(0,), (1,)]
        # bits 0 and 1 meet only through column 2, which comes last
        assert _components([1, 2, 0, 4, 3]) == [(0, 1, 4), (2,), (3,)]

