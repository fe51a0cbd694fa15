"""Convergence thresholds, optimal contractions and report assembly.

The threshold c of a connected graph is the maximal density of the
cographic matroid of its bridgeless core, certified by a maximizing edge
set and a polytope witness (`matroid.build_witness`, which scans the
core's blocks one at a time).  Every graph contracts onto an "optimal"
one with e/b equal to the same threshold; the contraction is read off the
maximal density-attaining set and rechecked exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (
    Multigraph,
    betti,
    bridges,
    component_count,
    contract_edges,
    delete_edges,
    genus,
    is_stable,
)
from .kirchhoff import KirchhoffPolynomial, psi_from_graph
from .matroid import (
    CertificateError,
    CographicMatroid,
    DensityCertificate,
    MatroidError,
    _densities,
    _rank_tables,
    _stack_rows,
    _subset_sums,
    build_witness,
    density,
)

SEARCH_MAX_EDGES = 15
# Member entries (subspaces x nonzero members) of the largest table of
# flats that the search's block pre-filter weighs: every table of genus
# <= 7 fits (the largest, all 358,648 of GF(2)^7).  Rows whose table is
# larger skip the pre-filter, and the recheck decides them.
FLAT_ENTRIES = 1 << 19
# Entries of the flat kernel's largest array in a pre-filter chunk:
# rows x max(2^b, flats of one rank).
FLAT_BLOCK = 1 << 22


class NoCyclesError(ValueError):
    """The graph is a tree: every edge is a bridge and no threshold exists."""


def make_ngon(n: int) -> Multigraph:
    """Cycle on n vertices (n >= 2); n = 2 gives two parallel edges."""
    if n < 2:
        raise ValueError("an n-gon needs n >= 2")
    vertices = tuple((i, 0) for i in range(n))
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return Multigraph(vertices, edges)


def make_doubled_2ngon(n: int) -> Multigraph:
    """2n-gon with every other side doubled: 3n edges, Betti number n + 1.

    Stable for every n >= 1 (each vertex meets one doubled and one single
    side).  The 2n cycle edges come first, then the duplicate copies of the
    even-indexed sides.
    """
    if n < 1:
        raise ValueError("the doubled 2n-gon needs n >= 1")
    v = 2 * n
    vertices = tuple((i, 0) for i in range(v))
    edges = [(i, (i + 1) % v) for i in range(v)]
    edges.extend((i, i + 1) for i in range(0, v, 2))
    return Multigraph(vertices, tuple(edges))


def threshold(g: Multigraph) -> tuple[Fraction, DensityCertificate]:
    """Convergence threshold and certificates.

    Contracts all bridges, then takes the maximal density of the cographic
    matroid of the core; the returned certificate includes the maximizing
    set T0 and a polytope witness, both indexed by core edge ids.
    """
    if betti(g) == 0:
        raise NoCyclesError(
            "every edge is a bridge (b = 0); the threshold is undefined"
        )
    *_, cert = _core(g, bridges(g))
    return cert.m, cert


def optimal_contraction(g: Multigraph) -> tuple[frozenset[int], Multigraph]:
    """Edge set S and quotient graph with c unchanged and equal to e/b.

    S is the complement of the maximal density-attaining set T0; loops in S
    are deleted and the rest is contracted.  The optimality of the result
    (same threshold, threshold = edge count / Betti number) is recomputed
    from scratch and a failure raises CertificateError.
    """
    return _contract_to_optimal(g, density(CographicMatroid(g)))


def _core(g: Multigraph, bridge_ids
          ) -> tuple[Multigraph, dict[int, int], DensityCertificate]:
    """One graph's bridgeless core, its input-to-core edge map and its
    threshold certificate (`build_witness`) in core edge ids."""
    core, edge_map = contract_edges(g, bridge_ids)
    return core, edge_map, build_witness(CographicMatroid(core))


def _contract_to_optimal(g: Multigraph, cert: DensityCertificate
                         ) -> tuple[frozenset[int], Multigraph]:
    """optimal_contraction of g, given its density certificate."""
    contracted = frozenset(range(g.n_edges)) - cert.t0
    loops = frozenset(e for e in contracted if g.is_loop(e))
    trimmed, del_map = delete_edges(g, loops)
    reduced, _ = contract_edges(
        trimmed, frozenset(del_map[e] for e in contracted - loops)
    )
    if reduced.n_edges != len(cert.t0):
        raise CertificateError("contraction did not leave exactly T0")
    # the matroid rank of T0: |T0| - components(g - T0) + 1
    if betti(reduced) != len(cert.t0) - component_count(g, cert.t0) + 1:
        raise CertificateError("contraction changed the matroid rank of T0")
    try:
        matroid = CographicMatroid(reduced)
    except MatroidError:
        raise CertificateError("optimal contraction produced a bridge") from None
    c_bar = density(matroid).m
    if c_bar != cert.m:
        raise CertificateError(
            f"threshold changed under contraction: {cert.m} -> {c_bar}"
        )
    if c_bar != Fraction(reduced.n_edges, betti(reduced)):
        raise CertificateError("contracted graph is not optimal (c != e/b)")
    return contracted, reduced


# ---------------------------------------------------------------------------
# Witness search


def _flat_rank_bound(n_vertices: int, n_edges: int, target: Fraction,
                     has_loop: bool) -> int:
    """Bound k, 1 <= k <= b, on the rank of a flat with >= target * k
    edges under minimum valence 3, on layer (v, e) with or without a loop.

    Every density maximizer extends to a flat, and (for target > 1) a
    maximizer never contains a graph loop.  Under minimum valence 3 a
    loop-free flat S of rank k with >= target*k edges forces
    comp(G - S) <= v/2 + |S|/3 in a loopless graph, hence
    k <= (3v - 6)/(4*target - 6); graphs with loops get the weaker bound
    k <= (v - 2)/(target - 2) (single-vertex components may keep loops and
    pay only their >= 2 non-loop endpoints, which bridgelessness forces).
    A reaching flat also has target * k <= e, and k <= b, the bound where
    neither formula applies; one below 1 (no flat reaches) is raised to 1.
    """
    p, q = target.numerator, target.denominator
    b = n_edges - n_vertices + 1
    if not has_loop and 4 * p > 6 * q:
        k_bound = ((3 * n_vertices - 6) * q) // (4 * p - 6 * q)
    elif has_loop and p > 2 * q:
        k_bound = ((n_vertices - 2) * q) // (p - 2 * q)
    else:
        return b
    return max(1, min(k_bound, n_edges * q // p, b))


def _flat_entries(b: int, k: int) -> int:
    """Member entries of `_flats(b, k)`, from the Gaussian binomials."""
    count, entries = 1, 0
    for d in range(1, k + 1):
        count = count * ((1 << (b - d + 1)) - 1) // ((1 << d) - 1)
        entries += count * ((1 << d) - 1)
    return entries


def _flats(b: int, k: int) -> tuple[np.ndarray, ...]:
    """The subspaces of GF(2)^b of dimension d = 1..min(k, b), one
    `_subspaces(b, d)` table per d."""
    return tuple(_subspaces(b, d) for d in range(1, min(k, b) + 1))


@functools.lru_cache(maxsize=None)
def _subspaces(b: int, d: int) -> np.ndarray:
    """The subspaces of GF(2)^b of dimension d, shape (n_d, 2^d - 1), each
    row the nonzero members of one.

    Each subspace is made once, from its reduced echelon basis: leading
    bits p_1 < ... < p_d, and basis vector i holds free bits at the
    positions below p_i that are no leading bit.
    """
    tables = []
    for pivots in itertools.combinations(range(b), d):
        free = [[j for j in range(p) if j not in pivots] for p in pivots]
        choice = np.arange(1 << sum(map(len, free)))
        basis, shift = [], 0
        for p, below in zip(pivots, free):
            vec = np.full_like(choice, 1 << p)
            for j in below:
                vec |= (choice >> shift & 1) << j
                shift += 1
            basis.append(vec)
        members = [np.zeros_like(choice)]
        for c in range(1, 1 << d):
            low = (c & -c).bit_length() - 1
            members.append(members[c & (c - 1)] ^ basis[low])
        tables.append(np.stack(members[1:], axis=1))
    table = np.concatenate(tables)
    table.flags.writeable = False  # shared by every caller
    return table


def _flats_reach(cols: np.ndarray, b: int, target: Fraction,
                 k: int) -> np.ndarray:
    """Does some nonempty S have |S| >= target * rank(S), for a block of
    candidates at once: row r of `cols` holds the cycle columns of one,
    each below 2^b, and k >= 1 bounds the rank of a reaching flat
    (`_flat_rank_bound`).

    Some nonempty S has q|S| >= p rank(S) exactly when some subspace F of
    dimension d <= k has q W(F) >= p d, where W(F) counts the edges
    whose column is a nonzero member of F: the span of S has the rank of
    S and weight >= |S|, and the edges with columns in F have rank <= d.
    The weights are summed one member at a time over every subspace of
    the table; they are held value-major, (2^b, rows), so one member's
    weights over the block are one contiguous run.  They are int8: a flat
    weighs at most e <= SEARCH_MAX_EDGES.
    """
    rows, e = cols.shape
    p, q = target.numerator, target.denominator
    weight = np.bincount((cols * rows + np.arange(rows)[:, None]).ravel(),
                         minlength=rows << b).astype(np.int8)
    weight = weight.reshape(1 << b, rows)
    reach = np.zeros(rows, dtype=bool)
    for d, flats in enumerate(_flats(b, k), 1):
        need = -(-p * d // q)  # the least weight with q * weight >= p * d
        if need > e:
            break
        total = weight[flats[:, 0]]
        for j in range(1, flats.shape[1]):
            total += weight[flats[:, j]]
        reach |= (total >= need).any(axis=0)
    return reach


def _density_passes(v: int, e: int, target: Fraction, ks, candidates):
    """The edge lists of the bridgeless candidates (ends, cols) of layer
    (v, e) under minimum valence 3 that the pre-filter passes, in order,
    decided a chunk at a time, each as (ends, decided).  A chunk's loopless
    and looped rows are decided apart, each kind with its own flat-rank
    bound k >= 1 from the pair ks, by `_flats_reach` when the table of
    flats of rank <= k holds at most FLAT_ENTRIES member entries; the rows
    of a kind whose table is larger pass undecided (decided False), for
    `_recheck` to decide.  The kernel's largest array holds at most
    FLAT_BLOCK entries, or one row.
    """
    b = e - v + 1
    kernel = [_flat_entries(b, k) <= FLAT_ENTRIES for k in ks]
    width = max([1 << b] + [len(flats) for k, flat in zip(ks, kernel) if flat
                            for flats in _flats(b, k)])
    rows = max(1, FLAT_BLOCK // width)
    while chunk := list(itertools.islice(candidates, rows)):
        ends = [x for x, _ in chunk]
        loops = np.array([any(a == c for a, c in x) for x in ends])
        decided = np.where(loops, kernel[1], kernel[0])
        reach = ~decided
        for picked, k in zip((~loops, loops), ks):
            if (picked := picked & decided).any():
                kind = itertools.compress(chunk, picked)
                reach[picked] = _flats_reach(np.array([c for _, c in kind]),
                                             b, target, k)
        yield from itertools.compress(zip(ends, decided.tolist()), reach)


def _gen_edge_lists(v: int, e: int, min_valence: int = 3, *,
                    bridgeless: bool = False, series: int = 0):
    """Canonical sorted connected edge multisets on v vertices with e >= 1
    edges, each yielded as (ends, cols) with its GF(2) cycle columns.

    Edges are normalized (a, b) with a <= b and emitted in nondecreasing
    lexicographic order.  After the first edge every tail a is a used
    vertex and only the head b may open a new one, max_used + 1 (a vertex
    opened as a tail has no earlier neighbour, and no later edge reaches
    back).  So every list is connected, and every connected isomorphism
    class keeps its lexicographically minimal labelling.  One rule forces
    every valence >= min_valence: no child is placed whose deficit, the sum
    of max(0, min_valence - valence), exceeds the 2r its r later edges add.
    Depth-first on an explicit stack, one frame per placed edge.

    The edge that opens vertex y is a spanning-tree edge from parent[y] < y.
    The k-th non-tree edge owns bit k, and col[y] holds the bits of the
    non-tree edges that cross y's subtree, so the columns (col[y] for the
    edge opening y, its own bit for a non-tree edge) represent the
    cographic matroid, as `_cycle_columns` does on another tree: a zero
    column is a bridge, and every column lies below 2^(e - v + 1).

    With bridgeless=True no list is extended that must end with a bridge.
    When the tail moves up to a, every edge that touches X = {0..a-1} is
    placed.  A bridge of the quotient that identifies the vertices >= a is
    a bridge of every completion, and a larger a only refines that
    quotient, so the first bridged tail ends the node.  The tree edge into
    y is such a bridge iff col[y] == 0 and y's subtree holds none or all of
    Z = {a..used-1}.  A list can still close with a bridge among its last
    tail's edges, so the caller tests the columns.  With v > 1 it also
    pushes no node that cannot give every vertex two non-loop edge ends
    (one is a bridge) and min_valence: a loop adds 2 to a valence, so an
    unopened vertex needs 2 + extra more edges and a vertex of valence 1
    needs 1 + extra, with extra = ceil(max(0, min_valence - 2) / 2).

    With series > 0 no child is kept that cannot grow a series class (a
    group of equal final columns) of `series` edges.  The tree never
    changes and a later edge adds only its own bit, so a placed column
    keeps its bits on the prefix and a later column has none of them: a
    class holding a nonzero prefix column x has at most cnt(x) edges, and
    one without prefix bits at most Z + min(r, v - used + 1), with Z the
    zero prefix columns, r the edges still to place, v - used the tree
    edges among them and one more non-tree edge (each has its own bit).
    """
    mv = min_valence
    # edges a completion still needs at an unopened vertex, and at a
    # vertex of valence 1 (completion bound; 0 disables it)
    extra = -(-max(0, mv - 2) // 2)
    fresh, lone = (2 + extra, 1 + extra) if bridgeless and v > 1 else (0, 0)
    deg = [0] * v
    deficit = mv * v  # sum over all v vertices of max(0, mv - valence)
    parent = [0] * v
    # col[y] for a vertex y; col[v + k] is the fixed own bit of the k-th
    # non-tree edge
    col = [0] * v + [1 << k for k in range(e)]
    sub = [1] + [0] * (v - 1)  # vertex mask of each subtree
    edges: list[tuple[int, int]] = []
    # per edge: the vertex it opened, or v + its rank among the non-tree edges
    opened: list[int] = []
    # Frame of the node with len(stack) - 1 edges placed: the next child
    # (a, b) to try, the node's bounds on a and b, and its used vertices.
    stack = [[0, 0, 0, min(v - 1, 1), 0]]
    while stack:
        frame = stack[-1]
        removing = len(edges) == len(stack)  # back from a child
        if removing:
            a, b = edges.pop()
            y = opened.pop()
            deg[a] -= 1
            deficit += deg[a] < mv
            deg[b] -= 1
            deficit += deg[b] < mv
        else:
            a, b, hi_a, hi_b, used = frame
            slack = 2 * (e - len(edges) - 1)  # valence the later edges add
            while a <= hi_a:
                if b > hi_b:
                    a += 1
                    b = a
                    if bridgeless and a <= hi_a:
                        z = (1 << used) - (1 << a)
                        for y in range(1, used):
                            s = sub[y] & z
                            if not col[y] and (not s or s == z):
                                a = hi_a + 1
                                break
                elif (deficit - (deg[a] < mv) - (deg[b] + (a == b) < mv) > slack
                      or not slack and b + 1 < v and used < v):
                    b += 1  # the child misses min_valence or a vertex
                else:
                    break
            if a > hi_a:
                stack.pop()
                continue
            frame[0] = a
            frame[1] = b + 1
            deficit -= deg[a] < mv
            deg[a] += 1
            deficit -= deg[b] < mv
            deg[b] += 1
            # a tree edge opens y = b; the used - 1 vertices above the root
            # were opened by tree edges, the other placed edges are non-tree
            y = b if b >= used and b else v + len(edges) - max(used - 1, 0)
        # placing and removing an edge are the same XORs
        if y < v:
            # y's subtree holds y alone; y joins the subtrees of a's path
            parent[y] = a
            col[y] = 0
            sub[y] = bit = 1 << y
            x = a
            while True:
                sub[x] ^= bit
                if not x:
                    break
                x = parent[x]
        else:
            # the non-tree edge's bit crosses the subtrees on its tree path
            bit = col[y]
            x, w = a, b
            while x != w:
                if x > w:
                    col[x] ^= bit
                    x = parent[x]
                else:
                    col[w] ^= bit
                    w = parent[w]
        if removing:
            continue
        edges.append((a, b))
        opened.append(y)
        used = max(used, b + 1)
        if series:
            # can a completion still hold a series class of `series` edges?
            cs = [col[y] for y in opened]
            if (max(map(cs.count, cs)) < series and cs.count(0)
                    + min(e - len(edges), v - used + 1) < series):
                continue
        r = e - len(edges)
        if not r:
            yield tuple(edges), [col[y] for y in opened]
        elif not (r < fresh and used < v or r < lone and 1 in deg):
            needy = a  # vertices below the tail are final and not needy
            while needy < used and deg[needy] >= mv:
                needy += 1
            stack.append([a, b, min(needy, used - 1), min(v - 1, used), used])


def _is_bridgeless(cols) -> bool:
    """No zero cycle column: every edge lies on a cycle."""
    return all(cols)


@functools.lru_cache(maxsize=None)
def _basis_codes(e: int) -> np.ndarray:
    """The uint16 code (2^e - 1) - sum of 2^(e-1-i) over the bits i of
    each mask of e edges, indexed by mask.

    Among masks of one size, codes ascend as the sorted edge-id tuples do
    in lexicographic order: the smallest edge where two sets differ
    belongs to the smaller tuple and sets the highest differing bit of
    the reversed mask.  The code of S is the reversed mask of E - S.
    """
    codes = _subset_sums([1 << (e - 1 - i) for i in range(e)], np.uint16)[::-1]
    codes.flags.writeable = False  # shared by every caller
    return codes


def _hit_keys(v: int, block, ranks: np.ndarray) -> list[tuple[bytes, int]]:
    """The hit key of each edge list in `block` on v vertices, given its
    rank table, with its number of spanning trees.

    A key is one bytes object: v, e and the sorted valence sequence, one
    byte each, then the Kirchhoff monomial supports as big-endian uint16
    `_basis_codes`, ascending.  Each spanning tree T gives one squarefree
    monomial on E - T with coefficient 1, and the supports E - T are the
    bases of the cographic matroid, the masks of popcount b and rank b.
    Keys compare as the tuples (v, e, valences, sorted supports as sorted
    edge-id tuples) do.
    """
    ends = np.asarray(block).reshape(len(block), -1, 2)
    e = ends.shape[1]
    b = int(ranks[0, -1])  # connected graphs with one v and e share b
    degs = np.sort((ends[..., None] == np.arange(v)).sum(axis=(1, 2)), axis=1)
    sizes = _subset_sums([1] * e, np.int8)
    rows, masks = np.nonzero((ranks == b) & (sizes == b))
    # codes sorted within each row, in one sort over all rows
    codes = np.sort(rows << e | _basis_codes(e)[masks]) & ((1 << e) - 1)
    packed = codes.astype(">u2").tobytes()
    counts = np.bincount(rows, minlength=len(block)).tolist()
    keys, at = [], 0
    for d, n in zip(degs.tolist(), counts):
        keys.append((bytes((v, e, *d)) + packed[at:at + 2 * n], n))
        at += 2 * n
    return keys


def _recheck(v: int, block, target: Fraction
             ) -> list[tuple[tuple, Fraction, tuple[bytes, int]]]:
    """(ends, exact density m, (hit key, tree count)) of each pre-filter
    pass (ends, decided) in `block`, edge lists on v vertices with one edge
    count, whose density reaches the target, from one stacked rank table.

    A row reaches when some nonempty mask S has rank(S) <= q|S| // p, a cap
    worked out per size in Python ints (and at most |S|), so it is exact.
    An edge of rank 0 is a bridge, and raises as CographicMatroid does; a
    row that the pre-filter decided and that does not reach means the
    pre-filter is wrong.
    """
    ends = [x for x, _ in block]
    e = len(ends[0])
    ranks = _rank_tables(v, ends)
    bridged = ranks[:, 1 << np.arange(e)] == 0
    if bridged.any():
        blocked = np.flatnonzero(bridged[bridged.any(axis=1)][0]).tolist()
        raise MatroidError(f"graph has bridges {blocked}; contract them first")
    p, q = target.numerator, target.denominator
    cap = np.array([-1] + [min(q * s // p, s) for s in range(1, e + 1)],
                   dtype=np.int8)[_subset_sums([1] * e, np.int8)]
    reach = (ranks <= cap).any(axis=1)
    if (~reach & [decided for _, decided in block]).any():
        raise CertificateError(
            "density pre-filter accepted a graph below the target"
        )
    ranks, ends = ranks[reach], list(itertools.compress(ends, reach))
    if not ends:
        return []
    found = [m for m, _ in _densities(ranks)]
    return list(zip(ends, found, _hit_keys(v, ends, ranks)))


def search_divergent(
    target_genus: int, max_edges: int, target, *, tree_counts=None
) -> list[tuple[Multigraph, Fraction]]:
    """Stable genus-0-vertex graphs with b = target_genus and c >= target.

    Enumerates connected bridgeless multigraphs with minimum valence 3 and
    at most max_edges edges, as canonical edge lists generated depth-first
    without the prefixes that must end with a bridge or that have too few
    edges left to give every vertex two non-loop edge ends and valence 3
    (`_gen_edge_lists`); each candidate comes with its cycle columns,
    which decide bridgelessness and the density pre-filter before the
    exact density recheck.  The pre-filter bounds the rank k of a reaching
    flat once per layer (v, e), with and without a loop, and weighs every flat
    of rank <= k, the subspaces of GF(2)^b, for a block of candidates at a
    time (`_flats_reach`); this decides every layer of genus <= 7.  Rows
    whose table of flats has more than FLAT_ENTRIES entries skip the
    pre-filter.  On a layer where k <= 1 with and without a loop, only a
    series class of ceil(target) edges can reach the target, so the
    generator drops every prefix that can no longer grow one.  The passes
    of a layer are rechecked in generation order (`_recheck`), which
    decides the skipped rows on the rank table it builds for every pass,
    so no candidate's table is built twice.  Every rank table is built in
    a stack of `matroid._stack_rows(e)` graphs.
    Hits are deduplicated by the cheap fingerprint (v, e, valence sequence,
    Kirchhoff monomial set) only, the first of a key kept, so isomorphic
    duplicates can survive; the monomial supports are the bases of the
    recheck's rank table, so no spanning tree is enumerated, and each hit
    holds its fingerprint as one packed bytes key (`_hit_keys`).  The
    output is sorted by c descending, then edge count ascending, then key.
    If tree_counts is a list, the number of spanning trees of each hit
    (its bases, counted for the key) is appended to it in output order.
    """
    if target_genus < 2:
        raise ValueError("search needs genus >= 2")
    if not 1 <= max_edges <= SEARCH_MAX_EDGES:
        raise ValueError(f"max_edges must be in 1..{SEARCH_MAX_EDGES}")
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target must be positive")

    hits: dict[bytes, tuple[Multigraph, Fraction, int]] = {}
    for v in range(1, max_edges - target_genus + 2):
        e = v + target_genus - 1
        ks = [_flat_rank_bound(v, e, target, loop) for loop in (False, True)]
        series = math.ceil(target) if max(ks) == 1 else 0
        passers = _density_passes(v, e, target, ks, (
            (ends, cols) for ends, cols in _gen_edge_lists(
                v, e, bridgeless=True, series=series)
            if _is_bridgeless(cols)
        ))
        vertices = tuple((i, 0) for i in range(v))  # shared by the layer
        while block := list(itertools.islice(passers, _stack_rows(e))):
            for ends, m, (key, n) in _recheck(v, block, target):
                if key not in hits:
                    hits[key] = (Multigraph(vertices, ends), m, n)
    out = sorted(hits.items(), key=lambda kv: (-kv[1][1], kv[1][0].n_edges, kv[0]))
    if tree_counts is not None:
        tree_counts.extend(n for _, (_, _, n) in out)
    return [(g, m) for _, (g, m, _) in out]


# ---------------------------------------------------------------------------
# Report assembly


def rational_fields(x: Fraction) -> dict:
    """Stable JSON rendering of an exact rational: string, decimal, float."""
    return {
        "fraction": str(x),
        "decimal": decimal6(x),
        "float": float(x),
    }


def decimal6(x: Fraction) -> str:
    """Exact decimal rendering to 6 places (round half to even)."""
    scaled = round(x * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


@dataclass(frozen=True)
class ConvergenceReport:
    """Full analysis of one input graph.

    For tree inputs (b = 0) the report uses the "no_cycles" variant: there
    is no polynomial factor in the integrand and no threshold; all
    threshold-related fields are None.
    """

    graph: Multigraph
    stable: bool
    bridge_ids: tuple[int, ...]
    variant: str  # "threshold" or "no_cycles"
    core: Multigraph | None = None
    core_edge_map: tuple[tuple[int, int], ...] = ()
    psi: KirchhoffPolynomial | None = None
    psi_routes_agree: bool = False
    c: Fraction | None = None
    certificate: DensityCertificate | None = None
    contracted_edges: tuple[int, ...] = ()  # original edge ids
    optimal_graph: Multigraph | None = None
    probe: dict | None = None

    def to_json_dict(self) -> dict:
        g = self.graph
        out = {
            "schema": "1",
            "variant": self.variant,
            "graph": g.to_json_dict(),
            "summary": {
                "vertices": g.n_vertices,
                "edges": g.n_edges,
                "betti": betti(g),
                "genus": genus(g),
                "stable": self.stable,
            },
            "bridges": list(self.bridge_ids),
        }
        if self.variant == "no_cycles":
            out["note"] = (
                "every edge is a bridge; the integrand has no polynomial "
                "factor and no divergence threshold is defined"
            )
            return out
        cert = self.certificate
        core = self.core
        gbar = self.optimal_graph
        out["core"] = {
            "graph": core.to_json_dict(),
            "edges": core.n_edges,
            "betti": betti(core),
            "edge_map": {str(a): b for a, b in self.core_edge_map},
        }
        out["psi"] = {
            "routes_agree": self.psi_routes_agree,
            "terms": len(self.psi.terms()),
            "degree": self.psi.degree(),
            "display": str(self.psi),
        }
        out["c"] = rational_fields(self.c)
        out["certificate"] = {
            "m": str(cert.m),
            "t0": sorted(cert.t0),
            "witness": [str(x) for x in cert.witness],
        }
        out["optimal_contraction"] = {
            "contracted_edges": list(self.contracted_edges),
            "graph": gbar.to_json_dict(),
            "edges": gbar.n_edges,
            "betti": betti(gbar),
            "c": rational_fields(Fraction(gbar.n_edges, betti(gbar))),
        }
        out["convergence"] = {
            "converges_for": f"Re(s) > {self.c}",
            "diverges_at": str(self.c),
        }
        out["probe"] = self.probe
        return out

    def csv_row(self, label: str = "-") -> list[str]:
        g = self.graph
        if self.variant == "no_cycles":
            c_str = dec = ""
            core_e = core_b = 0
            contracted = psi_terms = 0
        else:
            c_str = str(self.c)
            dec = decimal6(self.c)
            core_e = self.core.n_edges
            core_b = betti(self.core)
            contracted = len(self.contracted_edges)
            psi_terms = len(self.psi.terms())
        return [
            label,
            str(g.n_vertices),
            str(g.n_edges),
            str(betti(g)),
            str(genus(g)),
            str(self.stable).lower(),
            self.variant,
            c_str,
            dec,
            str(core_e),
            str(core_b),
            str(contracted),
            str(psi_terms),
        ]


CSV_HEADER = [
    "input",
    "vertices",
    "edges",
    "betti",
    "genus",
    "stable",
    "variant",
    "c",
    "c_decimal",
    "core_edges",
    "core_betti",
    "contracted_edges",
    "psi_terms",
]


class PsiMismatchError(CertificateError):
    """The two Kirchhoff routes disagreed; a hard failure."""


def analyze(g: Multigraph, with_probe: bool = False,
            probe_seed: int | None = None) -> ConvergenceReport:
    """Run the full pipeline on one graph and package the report.

    Stability, bridges, Kirchhoff polynomial by both routes (with exact
    equality enforced), threshold with certificates, optimal contraction of
    the bridgeless core, and optionally numeric probes at s = c and
    s = c + 1/2.
    """
    stable = is_stable(g)
    bridge_ids = tuple(sorted(bridges(g)))
    if betti(g) == 0:
        return ConvergenceReport(
            graph=g, stable=stable, bridge_ids=bridge_ids, variant="no_cycles"
        )
    # First, so that a core over the edge cap fails before the Kirchhoff routes
    core, edge_map, cert = _core(g, bridge_ids)
    det_route, tree_route = psi_from_graph(g)
    if det_route != tree_route:
        raise PsiMismatchError(
            "determinant and spanning-tree routes disagree on the Kirchhoff "
            "polynomial"
        )
    contracted_core, gbar = _contract_to_optimal(core, cert)
    inv_map = {new: old for old, new in edge_map.items()}
    contracted_original = tuple(sorted(inv_map[e] for e in contracted_core))

    probe_payload = None
    if with_probe:
        probe_payload = _probe_payload(core, cert.m, probe_seed)

    return ConvergenceReport(
        graph=g,
        stable=stable,
        bridge_ids=bridge_ids,
        variant="threshold",
        core=core,
        core_edge_map=tuple(sorted(edge_map.items())),
        psi=tree_route,
        psi_routes_agree=True,
        c=cert.m,
        certificate=cert,
        contracted_edges=contracted_original,
        optimal_graph=gbar,
        probe=probe_payload,
    )


def _probe_payload(core: Multigraph, c: Fraction, seed: int | None) -> dict:
    from .probe import (
        PROBE_MAX_EDGES,
        DEFAULT_SEED,
        ProbeConfig,
        _verdict_json,
        truncated_J,
    )

    if core.n_edges > PROBE_MAX_EDGES:
        return {
            "skipped": f"core has {core.n_edges} edges; probes support at "
            f"most {PROBE_MAX_EDGES}"
        }
    seed = DEFAULT_SEED if seed is None else seed
    payload = {}
    cfg = ProbeConfig(s=float(c), seed=seed)
    exponents = (float(c), float(c) + 0.5)
    verdicts = truncated_J(core, cfg, s_values=exponents)
    for label, s, verdict in zip(("at_threshold", "above_threshold"), exponents,
                                 verdicts):
        payload[label] = {
            "s": s,
            "method": cfg.method,
            "seed": seed,
            "grid": list(cfg.r_grid),
            **_verdict_json(verdict),
        }
    return payload
