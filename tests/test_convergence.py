import collections
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from modgraph import (
    CographicMatroid,
    NoCyclesError,
    analyze,
    betti,
    bridges,
    contract_edges,
    decimal6,
    density,
    genus,
    is_stable,
    make_doubled_2ngon,
    make_ngon,
    optimal_contraction,
    parse_graph,
    search_divergent,
    threshold,
)
import modgraph.convergence
import modgraph.graphs
import modgraph.matroid
from modgraph.convergence import (
    _basis_codes,
    _contract_to_optimal,
    _density_passes,
    _flat_entries,
    _flat_rank_bound,
    _flats,
    _flats_reach,
    _gen_edge_lists,
    _hit_keys,
    _is_bridgeless,
    _recheck,
)
from modgraph.graphs import (
    Multigraph,
    _cycle_columns,
    _ends,
    spanning_trees,
    valences,
)
from modgraph.matroid import (
    CertificateError,
    DensityCertificate,
    MatroidError,
    _densities,
    _rank_tables,
)
from modgraph.selftest import (
    bridged_triangles_graph,
    random_bridgeless_multigraph,
    random_connected_multigraph,
    theta_graph,
)

from helpers import cap_graph, gf2_rank


class TestFamilies:
    def test_ngon(self):
        g = make_ngon(3)
        assert g.n_vertices == 3 and g.n_edges == 3
        g2 = make_ngon(2)
        assert g2.n_vertices == 2 and g2.n_edges == 2
        for n in range(2, 9):
            assert betti(make_ngon(n)) == 1
        with pytest.raises(ValueError):
            make_ngon(1)

    def test_doubled_2ngon(self):
        for n in range(1, 6):
            g = make_doubled_2ngon(n)
            assert g.n_edges == 3 * n
            assert betti(g) == n + 1
            assert genus(g) == n + 1
            assert is_stable(g)
            assert not bridges(g)
        g = make_doubled_2ngon(2)
        assert g.n_edges == 6 and betti(g) == 3
        with pytest.raises(ValueError):
            make_doubled_2ngon(0)

    def test_doubled_1_is_theta(self):
        g = make_doubled_2ngon(1)
        assert g.n_vertices == 2 and g.n_edges == 3
        assert density(CographicMatroid(g)).m == Fraction(3, 2)


class TestThreshold:
    def test_ngons(self):
        for n in range(2, 7):
            c, cert = threshold(make_ngon(n))
            assert c == n
            assert cert.witness is not None

    def test_doubled_family(self):
        for n in range(2, 6):
            c, _ = threshold(make_doubled_2ngon(n))
            assert c == n

    def test_bridged_triangles(self):
        c, _ = threshold(bridged_triangles_graph())
        assert c == 3

    def test_tree_raises(self):
        with pytest.raises(NoCyclesError):
            threshold(parse_graph("0 1\n1 2"))

    def test_single_loop(self):
        c, cert = threshold(parse_graph('{"edges": [[0, 0]]}'))
        assert c == 1
        assert cert.witness == (Fraction(1),)


class TestOptimalContraction:
    def test_pn_identity(self):
        for n in (2, 4):
            s, gbar = optimal_contraction(make_ngon(n))
            assert s == frozenset()
            assert gbar.n_edges == n

    def test_theta_identity(self):
        s, gbar = optimal_contraction(theta_graph())
        assert s == frozenset()
        assert betti(gbar) == 2

    def test_doubled_2ngons_collapse(self):
        for n in (3, 4, 5):
            s, gbar = optimal_contraction(make_doubled_2ngon(n))
            assert (gbar.n_vertices, gbar.n_edges, betti(gbar)) == (n, n, 1)
            assert len(s) == 2 * n

    def test_doubled_square_already_optimal(self):
        s, gbar = optimal_contraction(make_doubled_2ngon(2))
        assert s == frozenset()
        assert gbar.n_edges == 6

    def test_loop_in_complement_is_deleted(self):
        # triangle with a pendant loop: T0 is the triangle, the loop goes
        g = parse_graph("0 1\n1 2\n2 0\n0 0")
        s, gbar = optimal_contraction(g)
        assert s == frozenset({3})
        assert gbar.n_edges == 3
        assert betti(gbar) == 1

    def test_bridge_in_reduced_graph_is_a_certificate_error(self):
        # a bridged graph with T0 = E: nothing is contracted, so the
        # reduced graph keeps the bridge, as if the contraction had
        # produced it
        g = parse_graph("0 1\n0 1\n1 2")
        cert = DensityCertificate(Fraction(3), frozenset(range(3)))
        with pytest.raises(CertificateError, match="produced a bridge"):
            _contract_to_optimal(g, cert)

    def test_c_preserved_random(self):
        rng = random.Random(67)
        for _ in range(15):
            g = random_bridgeless_multigraph(rng, 6, 8, 10**9)
            c = density(CographicMatroid(g)).m
            _, gbar = optimal_contraction(g)
            cbar = density(CographicMatroid(gbar)).m
            assert cbar == c == Fraction(gbar.n_edges, betti(gbar))


class TestGenerator:
    def test_every_isomorphism_class_represented(self):
        # brute force over all labelled multigraphs on <= 4 vertices with
        # <= 4 edges: each connected class must appear in the canonical
        # generator output (completeness of the first-use pruning)
        import itertools

        for v in range(1, 5):
            pairs = [(a, b) for a in range(v) for b in range(a, v)]
            for e in range(1, 5):
                generated = set()
                for ends, _ in _gen_edge_lists(v, e, min_valence=0):
                    if _cycle_columns(ends, v) is not None:
                        generated.add(_canonical_form(ends, v))
                brute = set()
                for combo in itertools.combinations_with_replacement(pairs, e):
                    used = {x for pair in combo for x in pair}
                    if len(used) != v:
                        continue
                    if _cycle_columns(combo, v) is not None:
                        brute.add(_canonical_form(combo, v))
                assert generated == brute, (v, e)

    @pytest.mark.parametrize("bridgeless", [False, True])
    def test_classes_match_brute_force(self, bridgeless):
        # v <= 4, e <= 6, min_valence 0-4: the classes of the generated
        # lists (bridgeless ones, when asked, as the caller filters) are
        # exactly the connected classes with every valence >= min_valence
        # (and no bridge, when asked)
        for v in range(1, 5):
            pairs = [(a, b) for a in range(v) for b in range(a, v)]
            for e in range(1, 7):
                # the class of each list; min valence, bridgeless per class
                form, kind = {}, {}
                for combo in itertools.combinations_with_replacement(pairs, e):
                    cols = _cycle_columns(combo, v)
                    if cols is None:
                        continue
                    form[combo] = f = _canonical_form(combo, v)
                    deg = [0] * v
                    for a, b in combo:
                        deg[a] += 1
                        deg[b] += 1
                    kind[f] = (min(deg), all(cols))
                for mv in range(5):
                    want = {f for f, (low, free) in kind.items()
                            if low >= mv and (free or not bridgeless)}
                    got = {form[ends] for ends, cols in _gen_edge_lists(
                        v, e, mv, bridgeless=bridgeless)
                        if all(cols) or not bridgeless}
                    assert got == want, (mv, v, e, want - got, got - want)

    @pytest.mark.parametrize("min_valence", [0, 3])
    def test_every_candidate_connected(self, min_valence):
        for v in range(1, 6):
            for e in range(7):
                for bridgeless in (False, True):
                    for ends, _ in _gen_edge_lists(v, e, min_valence=min_valence,
                                                   bridgeless=bridgeless):
                        assert _cycle_columns(ends, v) is not None, ends

    def test_min_valence_respected(self):
        for ends, _ in _gen_edge_lists(3, 5, min_valence=3):
            deg = [0, 0, 0]
            for a, b in ends:
                deg[a] += 1
                deg[b] += 1
            assert min(deg) >= 3

    @pytest.mark.parametrize("min_valence", [0, 1, 2, 3, 4])
    def test_pruning_keeps_every_bridgeless_list(self, min_valence):
        # the pruned generator, filtered by an independent bridge test,
        # equals the bridgeless subsequence of the unpruned one, in order;
        # e <= 9 at min_valence 0 and 1, where the unpruned stream is the
        # largest (the same holds at e = 10, about 50 s each)
        def bridgeless(lists, v):
            return [ends for ends, _ in lists if all(_cycle_columns(ends, v))]

        for v in range(1, 8):
            for e in range(1, 10 if min_valence < 2 else 11):
                full = _gen_edge_lists(v, e, min_valence=min_valence)
                pruned = _gen_edge_lists(v, e, min_valence=min_valence,
                                         bridgeless=True)
                assert bridgeless(pruned, v) == bridgeless(full, v), (v, e)

    @pytest.mark.parametrize("bridgeless", [False, True])
    @pytest.mark.parametrize("min_valence", [0, 3])
    def test_columns_represent_the_cographic_matroid(self, min_valence,
                                                     bridgeless):
        # the generator's columns come from another spanning tree than
        # _cycle_columns: same zero pattern, series classes (groups of
        # equal columns) and GF(2) ranks
        def series_classes(cols):
            return [[k for k, x in enumerate(cols) if x == col]
                    for col in dict.fromkeys(cols)]

        rng = random.Random(79)
        cases = 0
        for v in range(1, 7):
            for e in range(1, 9):
                for ends, cols in _gen_edge_lists(v, e, min_valence=min_valence,
                                                  bridgeless=bridgeless):
                    ref = _cycle_columns(ends, v)
                    assert len(cols) == e
                    assert [not c for c in cols] == [not c for c in ref], ends
                    assert series_classes(cols) == series_classes(ref), ends
                    for _ in range(4):
                        subset = [k for k in range(e) if rng.random() < 0.5]
                        assert (gf2_rank(cols[k] for k in subset)
                                == gf2_rank(ref[k] for k in subset)), ends
                    cases += 1
        assert cases > 1000

    def test_columns_lie_below_two_to_the_betti_number(self):
        # each non-tree edge owns the bit of its rank among the non-tree edges
        for v in range(1, 7):
            for e in range(1, 8):
                for ends, cols in _gen_edge_lists(v, e, min_valence=0):
                    assert max(cols) < 1 << (e - v + 1), ends

    def test_yield_counts(self):
        # v <= 6, e <= 8, minimum valence 3: pruning drops 1,234 of the
        # 2,509 lists (12 of them looped lists with a bridge on layers with
        # 2e = 3v); 1,241 are bridgeless and 34 keep a last-tail bridge
        # (100 before the completion bound)
        grid = [(v, e) for v in range(1, 7) for e in range(1, 9)]
        full = [x for v, e in grid for x, _ in _gen_edge_lists(v, e)]
        pruned = [(x, cols) for v, e in grid
                  for x, cols in _gen_edge_lists(v, e, bridgeless=True)]
        assert len(full) == 2509
        assert len(pruned) == 1275
        assert sum(all(cols) for _, cols in pruned) == 1241

    def test_completion_bound_on_the_search_layers(self):
        # the layers of search_divergent(5, 13, 3) yield 5,000 candidates
        # (5,640 before the completion bound) and the same 4,866 bridgeless
        # lists, in order (sha256 of their compact JSON)
        t = Fraction(3)
        lists = []
        for v in range(1, 10):
            e = v + 4
            if 3 * v > 2 * e:
                continue
            ks = [_flat_rank_bound(v, e, t, loop) for loop in (False, True)]
            series = 3 if max(ks) == 1 else 0
            lists += _gen_edge_lists(v, e, bridgeless=True, series=series)
        assert len(lists) == 5000
        kept = [[list(p) for p in ends] for ends, cols in lists if all(cols)]
        assert len(kept) == 4866
        text = json.dumps(kept, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "57c94f77fa28fa93505b821abb90f81f3401cbf218f099a31e6b4059420fbbc3")

    def test_series_prune_keeps_every_passing_candidate(self):
        # genus 4-6, e <= 11: wherever the flat-rank bound is <= 1 with and
        # without a loop, the prune drops only candidates that the bridge
        # test or the density pre-filter would refuse, and keeps the order
        targets = [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2),
                   Fraction(5)]
        pruning = set()
        for g in range(4, 7):
            for v in range(1, 13 - g):
                e = v + g - 1
                if 3 * v > 2 * e:
                    continue
                full = list(_gen_edge_lists(v, e, bridgeless=True))
                m = None
                for t in targets:
                    if max(_flat_rank_bound(v, e, t, loop)
                           for loop in (False, True)) > 1:
                        continue
                    series = -(-t.numerator // t.denominator)
                    pruned = list(_gen_edge_lists(v, e, bridgeless=True,
                                                  series=series))

                    def passing(lists):
                        return [(x, cols) for x, cols in lists
                                if _is_bridgeless(cols) and m[x] >= t]

                    if m is None:
                        m = _exact_densities(v, [x for x, cols in full
                                                 if _is_bridgeless(cols)])
                    assert passing(pruned) == passing(full), (v, e, t)
                    if len(pruned) < len(full):
                        pruning.add((v, e, t))
        assert len(pruning) >= 3

    def test_series_prune_yield_count(self):
        # the layers of search_divergent(6, 11, 5) yield 7 candidates with
        # the prune (48,531 without it); all 7 pass the bridge test
        layers = [(v, v + 5) for v in range(1, 7)]
        assert all(_flat_rank_bound(v, e, Fraction(5), loop) <= 1
                   for v, e in layers for loop in (False, True))
        lists = [x for v, e in layers
                 for x in _gen_edge_lists(v, e, bridgeless=True, series=5)]
        assert len(lists) == 7
        assert all(_is_bridgeless(cols) for _, cols in lists)


def _exact_densities(v, lists) -> dict:
    """The exact density of each edge list on v vertices, keyed by the
    list: the exhaustive scan of `density`, on stacked rank tables."""
    out = {}
    for start in range(0, len(lists), 64):
        block = lists[start:start + 64]
        out.update(zip(block, (m for m, _ in _densities(_rank_tables(v, block)))))
    return out


def _rechecked(v, t, passes):
    """The edge lists among the pre-filter passes (ends, decided) on v
    vertices whose density `_recheck` finds to reach t, in stacks of 64."""
    return [ends for at in range(0, len(passes), 64)
            for ends, _, _ in _recheck(v, passes[at:at + 64], t)]


def _decided(v, e, t, cands):
    """The search's decision over the candidates (ends, cols) of layer
    (v, e): the passes of `_density_passes` by its default deciders, and
    the recheck's decision when every row skips the pre-filter."""
    ks = [_flat_rank_bound(v, e, t, loop) for loop in (False, True)]
    default = [ends for ends, _ in _density_passes(v, e, t, ks, iter(cands))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modgraph.convergence, "FLAT_ENTRIES", 0)
        passes = list(_density_passes(v, e, t, ks, iter(cands)))
    return default, _rechecked(v, t, passes)


def _canonical_form(ends, v):
    import itertools

    best = None
    for perm in itertools.permutations(range(v)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[a], perm[b]))) for a, b in ends)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


class TestDensityDecision:
    """The search's density decision against the exact density, by the
    pre-filter and by the recheck."""

    def test_matches_exhaustive_density(self):
        # the search pre-filter must agree with the exact density scan
        cases = 0
        for v in range(2, 5):
            for e in range(v + 1, min(v + 4, 9)):
                for ends, _ in _gen_edge_lists(v, e, min_valence=3):
                    cols = _cycle_columns(ends, v)
                    if cols is None or not _is_bridgeless(cols):
                        continue
                    g = Multigraph(tuple((i, 0) for i in range(v)), ends)
                    m = density(CographicMatroid(g)).m
                    for t in (m, m + Fraction(1, 7), Fraction(3, 2), Fraction(5)):
                        want = [ends] if m >= t else []
                        got = _decided(v, e, t, [(ends, cols)])
                        assert got == (want, want), (ends, t, m)
                    cases += 1
        assert cases > 50

    def test_flat_rank_bound_matches_its_formulas(self):
        # the formula where one applies, capped by e / target and b and
        # raised to 1, else b: an int in 1..b on every layer of e <= 15
        targets = [Fraction(n, d) for d in (1, 2, 3, 7) for n in range(1, 8 * d)]
        targets += [Fraction(7, 4), Fraction(100)]
        for v in range(1, 16):
            for e in range(v, 16):
                b = e - v + 1
                for t in targets:
                    p, q = t.numerator, t.denominator
                    cap = min(e * q // p, b)
                    free = (max(1, min(((3 * v - 6) * q) // (4 * p - 6 * q), cap))
                            if 4 * p > 6 * q else b)
                    looped = (max(1, min(((v - 2) * q) // (p - 2 * q), cap))
                              if p > 2 * q else b)
                    for loop, want in ((False, free), (True, looped)):
                        k = _flat_rank_bound(v, e, t, loop)
                        assert type(k) is int and k == want, (v, e, t, loop)
                        assert 1 <= k <= b

    @staticmethod
    def _by_rank_tables(g, t):
        """The search's decision on g by the recheck's rank tables, which
        need no flat-rank bound and so no minimum valence."""
        ends = _ends(g)
        cols = _cycle_columns(ends, g.n_vertices)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modgraph.convergence, "FLAT_ENTRIES", 0)
            v, e = g.n_vertices, g.n_edges
            ks = [_flat_rank_bound(v, e, t, loop) for loop in (False, True)]
            passes = list(_density_passes(v, e, t, ks, iter([(ends, cols)])))
        return _rechecked(v, t, passes) == [ends]

    def test_matches_without_valence_assumption(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_bridgeless_multigraph(rng, 5, 8, 10**9)
            m = density(CographicMatroid(g)).m
            for t in (m, m + 1, Fraction(1, 2)):
                assert self._by_rank_tables(g, t) == (m >= t)

    def test_many_series_classes_without_valence_assumption(self):
        # up to 15 series classes (groups of equal cycle columns), at up to
        # SEARCH_MAX_EDGES edges
        rim = [(i, i % 7 + 1) for i in range(1, 8)]
        wheel = tuple([(0, i) for i in range(1, 8)] + rim)  # W7, 3-connected
        theta = ((0, 1),) * 3
        cases = [
            (8, wheel),  # 14 singleton classes
            (8, wheel + ((3, 3),)),  # 15 classes
            (1, ((0, 0),) * 14),  # bouquet of 14 loops
            (2, theta + ((0, 0),) * 6 + ((1, 1),) * 6),  # 15 classes
        ]
        for v, ends in cases:
            assert len(set(_cycle_columns(ends, v))) > 13
            g = Multigraph(tuple((i, 0) for i in range(v)), ends)
            m = density(CographicMatroid(g)).m
            for t in (m, m + Fraction(1, 7), m - Fraction(1, 7), Fraction(1, 2)):
                assert self._by_rank_tables(g, t) == (m >= t), (ends, t, m)

    def test_loops_in_the_small_flat_branch(self):
        # min valence 3 with loops: targets above 2 bound the flat rank by
        # (v - 2)/(target - 2), so the kernel weighs flats of rank 2 and 3
        # and no higher
        cases = 0
        for v in range(2, 7):
            for e in range(v + 1, v + 4):
                for ends, _ in _gen_edge_lists(v, e, min_valence=3):
                    if all(a != b for a, b in ends):
                        continue
                    cols = _cycle_columns(ends, v)
                    if cols is None or not _is_bridgeless(cols):
                        continue
                    g = Multigraph(tuple((i, 0) for i in range(v)), ends)
                    m = density(CographicMatroid(g)).m
                    for t in (m, m + Fraction(1, 7), Fraction(5, 2), Fraction(3),
                              Fraction(7, 2)):
                        want = [ends] if m >= t else []
                        got = _decided(v, e, t, [(ends, cols)])
                        assert got == (want, want), (ends, t, m)
                    cases += 1
        assert cases > 100

    def test_lines_and_planes_at_genus_5(self):
        # the search's genus-5 layers: every bridgeless candidate, at targets
        # whose flat-rank bound leaves lines (k = 2) or planes (k = 3)
        targets = (Fraction(5, 2), Fraction(3), Fraction(10, 3), Fraction(7, 2))
        loopless_bounds = set()
        for v in range(4, 8):
            e = v + 4
            cands = [(ends, cols) for ends, cols in _gen_edge_lists(
                v, e, bridgeless=True) if _is_bridgeless(cols)]
            m = _exact_densities(v, [ends for ends, _ in cands])
            for t in targets:
                want = [ends for ends, _ in cands if m[ends] >= t]
                assert _decided(v, e, t, cands) == (want, want), (v, t)
                loopless_bounds.add(_flat_rank_bound(v, e, t, False))
        assert {2, 3} <= loopless_bounds


def _gaussian_binomial(b, d):
    """Number of d-dimensional subspaces of GF(2)^b."""
    num = den = 1
    for i in range(d):
        num *= 2 ** (b - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


class TestFlatKernel:
    """The block pre-filter weighs every flat of bounded rank at once."""

    def test_flats_are_the_subspaces(self):
        for b in range(1, 7):
            tables = _flats(b, b)
            assert _flat_entries(b, b) == sum(t.size for t in tables)
            for d, table in enumerate(tables, 1):
                assert table.shape == (_gaussian_binomial(b, d), 2 ** d - 1)
                spaces = {frozenset(row) for row in table.tolist()}
                assert len(spaces) == len(table)  # each subspace once
                for space in spaces:
                    # 2^d - 1 nonzero vectors below 2^b, closed under XOR
                    assert len(space) == 2 ** d - 1 and 0 not in space
                    assert max(space) < 1 << b
                    assert all(x ^ y in space
                               for x in space for y in space if x != y)

    @staticmethod
    def _best_by_rank(cols):
        """The largest |S| at each GF(2) rank, over all nonempty S."""
        best = {}
        for mask in range(1, 1 << len(cols)):
            subset = [c for i, c in enumerate(cols) if mask >> i & 1]
            rank = gf2_rank(subset)
            best[rank] = max(best.get(rank, 0), len(subset))
        return best

    def test_matches_brute_force(self):
        # random nonzero column multisets, loop and loopless rows mixed in
        # one chunk, every bound from -1 to 3 and None for either kind,
        # mapped as `search_divergent` maps them; the kernel alone at each
        # bound, and the chunk's rows split by kind
        rng = random.Random(83)
        pairs = [(-1, None), (0, 3), (1, 2), (2, 1), (3, 0), (None, -1),
                 (None, None), (2, 3)]
        targets = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
                   Fraction(3), Fraction(7, 2), Fraction(5),
                   Fraction(1000001, 1000000)]
        decided = set()
        for b in range(2, 8):
            for e in (b, b + 3):
                block = [[rng.randrange(1, 1 << b) for _ in range(e)]
                         for _ in range(8)]
                loops = [rng.random() < 0.5 for _ in block]
                # one edge of each row's ends marks it: a loop or not
                ends = [((r, r),) if loop else ((r, r + 1),)
                        for r, loop in enumerate(loops)]
                best = [self._best_by_rank(cols) for cols in block]
                for bounds in pairs:
                    pair = [b if k is None else max(k, 1) for k in bounds]
                    ks = [pair[x] for x in loops]
                    for t in targets:
                        p, q = t.numerator, t.denominator
                        brute = [any(q * size >= p * rank
                                     for rank, size in best[r].items()
                                     if rank <= ks[r])
                                 for r in range(len(block))]
                        for k in set(ks):
                            got = _flats_reach(np.array(block), b, t, k)
                            for r, cols in enumerate(block):
                                if ks[r] == k:
                                    assert got[r] == brute[r], (cols, k, t)
                        passes = _density_passes(e - b + 1, e, t, pair,
                                                 zip(ends, block))
                        assert list(passes) == [
                            (x, True) for x in itertools.compress(ends, brute)]
                        decided.update(brute)
        assert decided == {False, True}

    def test_exact_in_int8_at_the_edge_cap(self):
        # 15 = SEARCH_MAX_EDGES edges on one column, and on the three
        # columns of a plane: the largest weight a search's int8 sums hold,
        # at targets just below, at and above each row's density (15, 15/2)
        block = [[1] * 15, [3] * 5 + [5] * 5 + [6] * 5]
        best = [self._best_by_rank(cols) for cols in block]
        assert best == [{1: 15}, {1: 5, 2: 15}]
        eps = Fraction(1, 1000)
        for m in (Fraction(15), Fraction(15, 2)):
            for t in (m - eps, m, m + eps):
                p, q = t.numerator, t.denominator
                brute = [any(q * size >= p * rank for rank, size in x.items())
                         for x in best]
                for k in (1, 2, 3):
                    got = _flats_reach(np.array(block), 3, t, k)
                    assert got.tolist() == [brute[0], brute[1] and k >= 2]
        # the same rows as graphs, on the rank tables: a 15-cycle, and a
        # theta whose three paths have 5 edges each
        cycle = tuple((i, (i + 1) % 15) for i in range(15))
        theta = tuple(edge for path in range(3) for edge in zip(
            [0, *range(2 + 4 * path, 6 + 4 * path)],
            [*range(2 + 4 * path, 6 + 4 * path), 1]))
        for ends, m in ((cycle, Fraction(15)), (theta, Fraction(15, 2))):
            v = max(map(max, ends)) + 1
            g = Multigraph(tuple((i, 0) for i in range(v)), ends)
            assert density(CographicMatroid(g)).m == m
            cand = [(ends, _cycle_columns(ends, v))]
            for t in (m - eps, m, m + eps):
                want = [ends] if m >= t else []
                assert _decided(v, 15, t, cand)[1] == want, (v, t)

    def test_rank_tables_at_extreme_targets(self):
        # targets whose p and q are far beyond any int16 product: the
        # rank tables decide them from Python ints, exactly
        v, e = 4, 8
        cands = [(ends, cols) for ends, cols in _gen_edge_lists(
            v, e, bridgeless=True) if _is_bridgeless(cols)]
        best = [self._best_by_rank(cols) for _, cols in cands]
        found = {max(Fraction(s, r) for r, s in x.items()) for x in best}
        assert min(found) < 3 and 3 in found and max(found) > 3
        for t in (Fraction(10**22), Fraction(3 * 10**20 + 1, 10**20),
                  Fraction(1, 10**22)):
            p, q = t.numerator, t.denominator
            want = [ends for (ends, _), x in zip(cands, best)
                    if any(q * size >= p * rank for rank, size in x.items())]
            assert _decided(v, e, t, cands) == (want, want), t

    @pytest.mark.parametrize("v,e,kernel", [(6, 12, True), (5, 12, False)])
    def test_genus_7_and_8_layers(self, v, e, kernel):
        # the first 2,000 bridgeless candidates of the genus-7 layer (6, 12),
        # which the kernel decides at bounds 2 and 4, and of the genus-8
        # layer (5, 12), whose looped rows skip the pre-filter (k = 3,
        # 712,725 table entries) and are decided by the recheck
        t = Fraction(3)
        b = e - v + 1
        ks = [_flat_rank_bound(v, e, t, loop) for loop in (False, True)]
        assert ks == ([2, 4] if kernel else [1, 3])
        fits = _flat_entries(b, ks[1]) <= modgraph.convergence.FLAT_ENTRIES
        assert fits == kernel
        cands = list(itertools.islice(
            ((ends, cols) for ends, cols in _gen_edge_lists(
                v, e, bridgeless=True) if _is_bridgeless(cols)), 2000))
        assert len(cands) == 2000
        want = []
        for ends, _ in cands:
            g = Multigraph(tuple((i, 0) for i in range(v)), ends)
            if density(CographicMatroid(g)).m >= t:
                want.append(ends)
        assert 0 < len(want) < len(cands)
        passes = list(_density_passes(v, e, t, ks, iter(cands)))
        assert all(decided == (kernel or all(a != c for a, c in ends))
                   for ends, decided in passes)
        assert _rechecked(v, t, passes) == want

    @pytest.mark.parametrize("block", [1, 100, 1000, 1 << 16])
    def test_passes_in_order_across_chunks(self, monkeypatch, block):
        # layers whose loop and loopless rows get different flat ranks,
        # decided a chunk of rows at a time, by the kernel and by the rank
        # tables
        layers = [(5, 6, Fraction(3)), (5, 8, Fraction(3)), (4, 4, Fraction(2)),
                  (4, 5, Fraction(5, 2)), (3, 3, Fraction(2))]
        monkeypatch.setattr(modgraph.convergence, "FLAT_BLOCK", block)
        for g, v, t in layers:
            e = v + g - 1
            cands = [(x, cols) for x, cols in _gen_edge_lists(
                v, e, bridgeless=True) if _is_bridgeless(cols)]
            m = _exact_densities(v, [x for x, _ in cands])
            want = [x for x, _ in cands if m[x] >= t]
            assert 0 < len(want) < len(cands)
            assert _decided(v, e, t, cands) == (want, want)


def decode_key(key):
    """The tuple (v, e, valences, sorted edge-id tuples of the Kirchhoff
    monomial supports) that a packed hit key stands for."""
    v, e = key[0], key[1]
    codes = np.frombuffer(key, dtype=">u2", offset=2 + v).tolist()
    monos = tuple(tuple(i for i in range(e) if not code >> (e - 1 - i) & 1)
                  for code in codes)
    return v, e, tuple(key[2:2 + v]), monos


def tree_fingerprint(g):
    """The search's hit key read from a spanning-tree enumeration."""
    degs = tuple(sorted(valences(g).values()))
    all_edges = frozenset(range(g.n_edges))
    monos = tuple(sorted(tuple(sorted(all_edges - t))
                         for t in spanning_trees(g)))
    return (g.n_vertices, g.n_edges, degs, monos)


class TestSearch:
    def test_guards(self):
        with pytest.raises(ValueError):
            search_divergent(1, 5, 1)
        with pytest.raises(ValueError):
            search_divergent(2, 16, 1)
        with pytest.raises(ValueError):
            search_divergent(2, 5, 0)

    def test_genus2_theta_found(self):
        hits = search_divergent(2, 3, Fraction(3, 2))
        assert any(
            c == Fraction(3, 2) and g.n_edges == 3 for g, c in hits
        )

    def test_genus2_no_hits_at_2(self):
        assert search_divergent(2, 3, Fraction(2)) == []

    def test_two_loop_bouquet_at_target_1(self):
        hits = search_divergent(2, 2, Fraction(1))
        assert len(hits) == 1
        g, c = hits[0]
        assert c == 1 and g.n_vertices == 1 and g.n_edges == 2

    def test_huge_target_empty(self):
        assert search_divergent(2, 4, Fraction(10**6)) == []

    def test_monotone_in_target(self):
        lo = search_divergent(3, 6, Fraction(1))
        hi = search_divergent(3, 6, Fraction(2))
        assert len(hi) <= len(lo)
        lo_keys = {(g.edges, c) for g, c in lo}
        assert all((g.edges, c) in lo_keys for g, c in hi)

    def test_sorted_by_c_then_edges(self):
        hits = search_divergent(3, 7, Fraction(1))
        keys = [(-c, g.n_edges) for g, c in hits]
        assert keys == sorted(keys)

    def test_tree_counts_match_enumeration(self):
        counts = [-1]
        hits = search_divergent(3, 7, Fraction(1), tree_counts=counts)
        assert hits == search_divergent(3, 7, Fraction(1))
        assert counts[0] == -1 and len(counts) == len(hits) + 1
        assert counts[1:] == [len(spanning_trees(g)) for g, _ in hits]

    def test_enumerates_no_spanning_trees(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("search enumerated spanning trees")

        counts = []
        with monkeypatch.context() as patch:
            patch.setattr(modgraph.graphs, "spanning_trees", refuse)
            patch.setattr(modgraph.convergence, "spanning_trees", refuse,
                          raising=False)
            hits = search_divergent(4, 9, 2, tree_counts=counts)
        assert len(hits) == len(counts) == 169
        # the rank table's bases are the complements of the spanning trees;
        # the packed key decodes to them, sorted
        for (g, _), n_trees in zip(hits, counts):
            [(key, n)] = _hit_keys(g.n_vertices, [_ends(g)],
                                   CographicMatroid(g).rank_table()[None])
            assert decode_key(key) == tree_fingerprint(g)
            assert n_trees == n == len(spanning_trees(g))

    def test_codes_ascend_with_sorted_edge_tuples(self):
        # among subsets of one size, up to the 15-edge search cap
        rng = random.Random(101)
        for e in (1, 2, 5, 9, 13, 15):
            codes = _basis_codes(e)
            assert codes.dtype == np.uint16 and len(codes) == 1 << e
            for size in {0, 1, e // 2, e - 1, e}:
                subsets = {tuple(sorted(rng.sample(range(e), size)))
                           for _ in range(300)}
                by_code = sorted(subsets, key=lambda ids: codes[
                    sum(1 << i for i in ids)])
                assert by_code == sorted(subsets), (e, size)

    def test_keys_order_as_fingerprints(self):
        # two blocks of one layer: packed keys sort as the tuples they
        # stand for, and counts are the bases per row
        lists = [ends for ends, cols in _gen_edge_lists(5, 9, bridgeless=True)
                 if all(cols)][:60]
        keys = []
        for block in (lists[:23], lists[23:]):
            keys += _hit_keys(5, block, _rank_tables(5, block))
        decoded = [decode_key(key) for key, _ in keys]
        assert [len(d[3]) for d in decoded] == [n for _, n in keys]
        assert sorted(range(60), key=lambda i: keys[i][0]) == sorted(
            range(60), key=lambda i: decoded[i])

    def test_memory_peak(self):
        # tracemalloc peak of a warm search_divergent(5, 11, 3): 2.8 MiB with
        # a tuple of edge-id tuples per hit, 1.3 MiB with packed keys
        search_divergent(5, 11, 3)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            search_divergent(5, 11, 3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 << 20

    def test_all_hits_satisfy_contract(self):
        for g, c in search_divergent(3, 7, Fraction(2)):
            assert betti(g) == 3
            assert is_stable(g)
            assert not bridges(g)
            assert c == density(CographicMatroid(g)).m
            assert c >= 2

    def test_frozen_hits(self):
        # recorded before the generator pruned bridged prefixes: the exact
        # (edges, c) list, order included, as sha256 of its compact JSON
        hits = search_divergent(5, 11, Fraction(3))
        assert len(hits) == 470
        assert hits[0] == (hits[0][0], Fraction(4))
        assert hits[0][0].edges == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 3),
                                    (2, 2), (2, 3), (3, 3))
        assert hits[-1][0].edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5),
                                     (1, 5), (2, 6), (2, 6), (3, 4), (3, 4),
                                     (5, 6))
        text = json.dumps([[[list(p) for p in g.edges], str(c)] for g, c in hits],
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "78adaf3e427dd88bbe5fe628b41c49695fde2f73b4fe2186ed8c7732650c5db5")


class TestSearchBlocks:
    """Every rank table of the search is built in a stack of
    `matroid._stack_rows(e)` graphs, the recheck's, once per edge list."""

    @staticmethod
    def _search(args):
        counts = []
        hits = search_divergent(*args, tree_counts=counts)
        return [(g.edges, c) for g, c in hits], counts

    @pytest.mark.parametrize("args", [(5, 11, 3), (4, 9, 2)])
    def test_block_size_leaves_output_unchanged(self, monkeypatch, args):
        # every density decision by the recheck, one graph per stack, then
        # one stack per call
        default = self._search(args)
        monkeypatch.setattr(modgraph.convergence, "FLAT_ENTRIES", 0)
        for entries in (1, 1 << 30):
            monkeypatch.setattr(modgraph.matroid, "STACK_ENTRIES", entries)
            assert self._search(args) == default

    @pytest.mark.parametrize("entries", [None, 1 << 9])
    def test_blocks_bounded_by_the_cap(self, monkeypatch, entries):
        # the kernel decides the rows of (5, 11, 3) whose flat rank is <= 2
        # and the recheck the rest; each stack of the recheck holds at most
        # STACK_ENTRIES table entries, or one row (at 2^9 entries, every
        # row of e >= 10 edges alone)
        if entries is not None:
            monkeypatch.setattr(modgraph.matroid, "STACK_ENTRIES", entries)
        monkeypatch.setattr(modgraph.convergence, "FLAT_ENTRIES",
                            _flat_entries(5, 2))
        cap = modgraph.matroid.STACK_ENTRIES
        build = modgraph.convergence._rank_tables
        rows = []

        def bounded(n, stack):
            ranks = build(n, stack)
            assert len(stack) * ranks.shape[1] <= cap or len(stack) == 1
            rows.append(len(stack))
            return ranks

        monkeypatch.setattr(modgraph.convergence, "_rank_tables", bounded)
        hits = search_divergent(5, 11, 3)
        assert len(hits) == 470 and sum(rows) >= len(hits)
        assert max(rows) > 1

    def test_rank_table_built_once_per_edge_list(self, monkeypatch):
        # the rows of (5, 11, 3) that skip the pre-filter are decided on
        # the recheck's stacks: no edge list reaches `_rank_tables` twice,
        # and every stack holds at most STACK_ENTRIES entries, or one row
        monkeypatch.setattr(modgraph.convergence, "FLAT_ENTRIES",
                            _flat_entries(5, 2))
        cap = modgraph.matroid.STACK_ENTRIES
        build = modgraph.convergence._rank_tables
        seen = collections.Counter()

        def counted(n, stack):
            assert len(stack) << len(stack[0]) <= cap or len(stack) == 1
            seen.update(stack)
            return build(n, stack)

        monkeypatch.setattr(modgraph.convergence, "_rank_tables", counted)
        assert len(search_divergent(5, 11, 3)) == 470
        assert len(seen) > 470 and max(seen.values()) == 1

    @pytest.mark.parametrize("block", [None, 1 << 16])
    def test_prefilter_chunks_bounded_by_the_budget(self, monkeypatch, block):
        # the kernel's largest array, its weights or its sums over the flats
        # of one rank, stays within FLAT_BLOCK entries, or holds one row
        if block is not None:
            monkeypatch.setattr(modgraph.convergence, "FLAT_BLOCK", block)
        monkeypatch.setattr(modgraph.convergence, "FLAT_ENTRIES",
                            _flat_entries(5, 2))
        cap = modgraph.convergence.FLAT_BLOCK
        weigh = modgraph.convergence._flats_reach
        rows = []

        def weigh_bounded(cols, b, target, k):
            width = max(1 << b, *map(len, _flats(b, k)))
            assert len(cols) * width <= cap or len(cols) == 1
            rows.append(len(cols))
            return weigh(cols, b, target, k)

        monkeypatch.setattr(modgraph.convergence, "_flats_reach", weigh_bounded)
        assert len(search_divergent(5, 11, 3)) == 470
        assert max(rows) > 1

    @pytest.mark.parametrize("entries,block", [(0, None), (1 << 30, 1),
                                               (1 << 30, 1 << 30)])
    def test_flat_table_size_leaves_output_unchanged(self, monkeypatch,
                                                     entries, block):
        # every layer by the rank tables, then one candidate per chunk,
        # then one chunk per layer
        default = self._search((5, 11, 3))
        monkeypatch.setattr(modgraph.convergence, "FLAT_ENTRIES", entries)
        if block is not None:
            monkeypatch.setattr(modgraph.convergence, "FLAT_BLOCK", block)
        assert self._search((5, 11, 3)) == default

    def test_prefilter_fault_raises(self, monkeypatch):
        monkeypatch.setattr(modgraph.convergence, "_flats_reach",
                            lambda cols, *args: np.ones(len(cols), dtype=bool))
        with pytest.raises(CertificateError, match="below the target"):
            search_divergent(3, 6, 2)

    def test_bridged_edge_list_raises(self):
        square = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))  # a 4-cycle + chord
        digons = ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3))  # edge 2 a bridge
        [(ends, m, _)] = _recheck(4, [(square, True)], Fraction(1))
        assert ends == square and m == Fraction(5, 2)
        with pytest.raises(MatroidError, match=r"bridges \[2\]"):
            _recheck(4, [(square, True), (digons, False)], Fraction(1))

    def test_recheck_drops_only_undecided_rows(self):
        # density 5/2 (a 4-cycle with a chord) and 4 (a 4-cycle with a
        # loop) at target 3: an undecided row below the target is dropped,
        # one the pre-filter passed raises
        square = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
        looped = ((0, 0), (0, 1), (0, 3), (1, 2), (2, 3))
        t = Fraction(3)
        kept = _recheck(4, [(square, False), (looped, False)], t)
        assert [(ends, m) for ends, m, _ in kept] == [(looped, Fraction(4))]
        assert _recheck(4, [(square, False)], t) == []
        with pytest.raises(CertificateError, match="below the target"):
            _recheck(4, [(looped, False), (square, True)], t)


def graphs_with_bridges(seed, count):
    """Seeded random multigraphs with cycles, each with a pendant bridge."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_connected_multigraph(rng, 5, 8)
        if betti(g) == 0:
            continue
        pendant = (rng.randrange(g.n_vertices), g.n_vertices)
        out.append(Multigraph(g.vertices + ((g.n_vertices, 0),),
                              g.edges + (pendant,)))
    return out


class TestAnalyze:
    def test_core_built_once(self, monkeypatch):
        g = cap_graph()
        builds, tables = [], []
        init, table = CographicMatroid.__init__, CographicMatroid.rank_table

        def counting_init(self, graph):
            builds.append(graph.n_edges)
            init(self, graph)

        def counting_table(self):
            if self._rank_table is None:
                tables.append(self.n_edges)
            return table(self)

        monkeypatch.setattr(CographicMatroid, "__init__", counting_init)
        monkeypatch.setattr(CographicMatroid, "rank_table", counting_table)
        on_input = {"bridges": 0, "contract_edges": 0}
        for name, fn in [("bridges", bridges), ("contract_edges", contract_edges)]:
            def counted(h, *args, _fn=fn, _name=name):
                if h is g:
                    on_input[_name] += 1
                return _fn(h, *args)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("modgraph") and \
                        getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        rep = analyze(g)
        assert rep.c == 6 and rep.core.n_edges == 19
        # the core (its bridge check), its two blocks (18 edges and the
        # loop), and the reduced graph's one block for the recheck; a table
        # for each block, none for the core as a whole
        assert builds == [19, 18, 1, 18]
        assert tables == [18, 1, 18]
        assert on_input == {"bridges": 1, "contract_edges": 1}

    def test_agrees_with_public_wrappers(self):
        seen = {"loop": False, "parallel": False}
        for g in graphs_with_bridges(83, 25):
            rep = analyze(g)
            assert rep.bridge_ids
            seen["loop"] |= any(t == h for t, h in g.edges)
            seen["parallel"] |= len(set(map(frozenset, g.edges))) < g.n_edges
            assert (rep.c, rep.certificate) == threshold(g)
            contracted, gbar = optimal_contraction(rep.core)
            assert rep.optimal_graph == gbar
            assert rep.contracted_edges == tuple(sorted(
                old for old, new in rep.core_edge_map if new in contracted
            ))
        assert all(seen.values())

    def test_p3_report(self):
        rep = analyze(make_ngon(3))
        d = rep.to_json_dict()
        assert d["schema"] == "1"
        assert d["variant"] == "threshold"
        assert d["c"]["fraction"] == "3"
        assert d["c"]["decimal"] == "3.000000"
        assert d["psi"]["display"] == "x0 + x1 + x2"
        assert d["psi"]["routes_agree"] is True
        assert d["optimal_contraction"]["contracted_edges"] == []
        assert d["convergence"] == {
            "converges_for": "Re(s) > 3",
            "diverges_at": "3",
        }

    def test_tree_variant(self):
        rep = analyze(parse_graph("0 1\n1 2"))
        d = rep.to_json_dict()
        assert d["variant"] == "no_cycles"
        assert "c" not in d
        assert "note" in d

    def test_single_loop(self):
        d = analyze(parse_graph('{"edges": [[0, 0]]}')).to_json_dict()
        assert d["c"]["fraction"] == "1"
        assert d["summary"]["stable"] is False

    def test_bridged_triangles_certificates_on_core(self):
        rep = analyze(bridged_triangles_graph())
        d = rep.to_json_dict()
        assert d["bridges"] == [3]
        assert d["core"]["edges"] == 6
        assert d["c"]["fraction"] == "3"
        # contracted edges reported in original ids, disjoint from bridges
        assert 3 not in d["optimal_contraction"]["contracted_edges"]

    def test_deterministic_bytes(self):
        g = make_doubled_2ngon(3)
        a = json.dumps(analyze(g).to_json_dict(), indent=2)
        b = json.dumps(analyze(g).to_json_dict(), indent=2)
        assert a == b

    def test_deterministic_with_probe(self):
        g = theta_graph()
        a = json.dumps(analyze(g, with_probe=True, probe_seed=7).to_json_dict())
        b = json.dumps(analyze(g, with_probe=True, probe_seed=7).to_json_dict())
        assert a == b
        d = analyze(g, with_probe=True, probe_seed=7).to_json_dict()
        assert d["probe"]["at_threshold"]["verdict"] == "diverging"
        assert d["probe"]["above_threshold"]["verdict"] == "saturating"

    def test_probe_skipped_when_core_too_big(self):
        g = make_doubled_2ngon(3)  # 9 edges
        d = analyze(g, with_probe=True).to_json_dict()
        assert "skipped" in d["probe"]

    def test_decimal6(self):
        assert decimal6(Fraction(3, 2)) == "1.500000"
        assert decimal6(Fraction(1, 3)) == "0.333333"
        assert decimal6(Fraction(-1, 3)) == "-0.333333"
        assert decimal6(Fraction(5)) == "5.000000"
