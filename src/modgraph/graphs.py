"""Connected multigraphs with genus-labelled vertices.

Edges are ordered (tail, head) pairs; the position of an edge in the edge
tuple is its edge id, and the (tail, head) order fixes the orientation used
for cycle signs.  Loops and parallel edges are allowed.  Every value is
immutable and every operation is a pure function returning new graphs.

Every traversal is one BFS spanning forest (`_forest`): its component
labels decide connectivity and name the vertices of a contraction, its
tree gives the GF(2) cycle columns, and a given spanning tree, rooted by
it, gives the signed fundamental cycles from its root paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain


class GraphError(ValueError):
    """Malformed, dangling or disconnected graph input."""


@dataclass(frozen=True)
class Multigraph:
    """A connected undirected multigraph.

    vertices: tuple of (vertex id, genus); edges: tuple of (tail, head).
    Every id, genus and endpoint must be an int (not a bool), or
    GraphError is raised; nothing is coerced.  Connectivity is enforced at
    construction; a single vertex with no edges counts as connected.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for name, what in (("vertices", "vertex"), ("edges", "edge")):
            pairs = getattr(self, name)  # the caller's tuples are kept
            if type(pairs) is not tuple or {*map(type, pairs)} - {tuple}:
                pairs = tuple(map(tuple, pairs))
                object.__setattr__(self, name, pairs)
            # one pass over the types; the per-value test only when it fails
            if {*map(len, pairs)} - {2} or {*map(type, chain(*pairs))} - {int}:
                for k, pair in enumerate(pairs):
                    if len(pair) != 2 or not all(map(_is_json_int, pair)):
                        raise GraphError(
                            f"{what} {k} is not a pair of ints: {pair!r}")
        ids = [v for v, _ in self.vertices]
        if not ids:
            raise GraphError("graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate vertex ids")
        if any(g < 0 for _, g in self.vertices):
            raise GraphError("vertex genus must be nonnegative")
        known = set(ids)
        for eid, (t, h) in enumerate(self.edges):
            if t not in known or h not in known:
                raise GraphError(f"edge {eid} has a dangling endpoint ({t}, {h})")
        if any(_forest(self.n_vertices, _ends(self))[2]):
            raise GraphError("graph is disconnected")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def genus_of(self) -> dict[int, int]:
        return {v: g for v, g in self.vertices}

    def is_loop(self, eid: int) -> bool:
        t, h = self.edges[eid]
        return t == h

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "genus": g} for v, g in self.vertices],
            "edges": [[t, h] for t, h in self.edges],
        }


def _ends(g: Multigraph) -> list[tuple[int, int]]:
    """Each edge's (tail, head) as positions in g.vertices."""
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    return [(index[t], index[h]) for t, h in g.edges]


def _forest(n_vertices: int, ends) -> tuple[list[int], list[int], list[int]]:
    """BFS spanning forest of the edges `ends` on vertices 0..n_vertices-1.

    A BFS starts at each unvisited vertex in increasing order and scans a
    vertex's edges in edge order.  Returns (order, parent_edge, label): the
    vertices in visiting order; the index in `ends` of the edge that reached
    each vertex, -1 at a root; and each vertex's component, numbered 0, 1,
    ... in order of its smallest vertex.
    """
    adj = [[] for _ in range(n_vertices)]
    for k, (a, b) in enumerate(ends):
        adj[a].append((b, k))
        adj[b].append((a, k))
    order = []
    parent_edge = [-1] * n_vertices
    label = [-1] * n_vertices
    count = 0
    for root in range(n_vertices):
        if label[root] >= 0:
            continue
        label[root] = count
        queue = [root]
        for x in queue:
            for y, k in adj[x]:
                if label[y] < 0:
                    label[y] = count
                    parent_edge[y] = k
                    queue.append(y)
        order += queue
        count += 1
    return order, parent_edge, label


def component_count(g: Multigraph, removed_edges=frozenset()) -> int:
    """Number of connected components after deleting `removed_edges`."""
    removed = frozenset(removed_edges)
    kept = [ab for eid, ab in enumerate(_ends(g)) if eid not in removed]
    return max(_forest(g.n_vertices, kept)[2]) + 1


def _is_json_int(x) -> bool:
    """A JSON integer: an int that is not a bool (JSON true/false)."""
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(data) -> Multigraph:
    """Build a graph from {"vertices": [{"id", "genus"}], "edges": [[t, h]]}.

    The "vertices" array may be omitted, in which case the vertex set is
    implied by the edge endpoints and all genera are 0.  Per-vertex genus
    defaults to 0 when absent.
    """
    if not isinstance(data, dict) or "edges" not in data:
        raise GraphError("JSON graph must be an object with an 'edges' array")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("'edges' must be an array of [tail, head] pairs")
    edges = []
    for k, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphError(f"edge {k} is not a [tail, head] pair")
        if not all(_is_json_int(x) for x in pair):
            raise GraphError(f"edge {k} has non-integer endpoints")
        edges.append(tuple(pair))
    if "vertices" in data and data["vertices"] is not None:
        if not isinstance(data["vertices"], list):
            raise GraphError("'vertices' must be an array of vertex objects")
        vertices = []
        for entry in data["vertices"]:
            if not isinstance(entry, dict) or "id" not in entry:
                raise GraphError("vertex entries must be objects with an 'id'")
            vid, gen = entry["id"], entry.get("genus", 0)
            if not _is_json_int(vid):
                raise GraphError(f"vertex id {vid!r} is not an integer")
            if not _is_json_int(gen):
                raise GraphError(f"vertex {vid} has non-integer genus {gen!r}")
            vertices.append((vid, gen))
    else:
        vertices = [(v, 0) for v in sorted({v for e in edges for v in e})]
    return Multigraph(tuple(vertices), tuple(edges))


def parse_graph(text: str) -> Multigraph:
    """Parse the JSON graph schema or whitespace "tail head" lines."""
    stripped = text.strip()
    if not stripped:
        raise GraphError("empty graph input")
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise GraphError(f"bad JSON: {exc}") from None
        except RecursionError:
            raise GraphError("bad JSON: arrays or objects nested too deeply") from None
        return from_json_dict(data)
    edges = []
    for ln, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {ln}: expected 'tail head', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"line {ln}: non-integer endpoint in {line!r}") from None
    vertices = tuple((v, 0) for v in sorted({v for e in edges for v in e}))
    return Multigraph(vertices, tuple(edges))


def betti(g: Multigraph) -> int:
    """First Betti number e - v + 1 of a connected graph."""
    return g.n_edges - g.n_vertices + 1


def genus(g: Multigraph) -> int:
    """Betti number plus the sum of the vertex genera."""
    return betti(g) + sum(gen for _, gen in g.vertices)


def valences(g: Multigraph) -> dict[int, int]:
    """Vertex valences; a loop contributes 2 to its vertex."""
    val = {v: 0 for v, _ in g.vertices}
    for t, h in g.edges:
        val[t] += 1
        val[h] += 1
    return val


def is_stable(g: Multigraph) -> bool:
    """True iff 2*genus(v) - 2 + valence(v) > 0 at every vertex."""
    val = valences(g)
    return all(2 * gen - 2 + val[v] > 0 for v, gen in g.vertices)


def _cycle_columns(ends, n_vertices) -> list[int] | None:
    """Columns of a fundamental cycle matrix over GF(2), one int per edge.

    `ends` holds (a, b) vertex indices in 0..n_vertices-1.  Bit i of a
    column stands for the fundamental cycle of the i-th non-tree edge, in
    edge-id order, of the BFS tree of `_forest` (b bits in use), so the
    columns represent the cographic matroid: a bridge is a zero column, a
    series class is a group of equal columns and the rank of an edge set
    is the GF(2) rank of its columns.
    Returns None when the graph is disconnected.  O(v + e) word operations.
    """
    order, parent_edge, component = _forest(n_vertices, ends)
    if any(component):
        return None
    cols = [0] * len(ends)
    in_tree = set(parent_edge)
    # A non-tree edge owns its bit and marks both endpoints; a tree edge
    # carries the bits of the non-tree edges leaving the subtree below it.
    label = [0] * n_vertices
    bit = 1
    for k, (a, b) in enumerate(ends):
        if k not in in_tree:
            cols[k] = bit
            label[a] ^= bit
            label[b] ^= bit
            bit <<= 1
    for y in reversed(order[1:]):
        k = parent_edge[y]
        cols[k] = label[y]
        a, b = ends[k]
        label[b if a == y else a] ^= label[y]
    return cols


def _components(cols) -> list[tuple[int, ...]]:
    """The classes of the column indices whose supports overlap, directly
    or through a chain: ascending ids per class, classes by smallest id.

    For the cycle columns of `_cycle_columns`, a basis matrix [I | A] of
    the cographic matroid, these are its connected components, the edge
    sets of the graph's blocks: a zero column (a bridge) and a loop's
    column, whose bit no other column holds, are classes of their own.
    Each class is held as the OR of its columns; a column merges every
    class it meets.
    """
    classes: list[tuple[int, list[int]]] = []
    for k, col in enumerate(cols):
        ids, apart = [k], []
        for mask, members in classes:
            if mask & col:
                col |= mask
                ids += members
            else:
                apart.append((mask, members))
        classes = apart + [(col, ids)]
    return sorted(tuple(sorted(ids)) for _, ids in classes)


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose deletion disconnects the graph; loops never qualify.

    The edges with a zero cycle column: no cycle passes through them.
    """
    cols = _cycle_columns(_ends(g), g.n_vertices)
    return frozenset(k for k, col in enumerate(cols) if not col)


def contract_edges(g: Multigraph, contracted) -> tuple[Multigraph, dict[int, int]]:
    """Contract a loop-free edge set; returns the quotient and an edge-id map.

    Endpoints of every contracted edge are identified; contracted edges
    vanish, all other edges survive (parallel edges and newly created loops
    included).  Vertices of the quotient are renumbered 0..v'-1 in order of
    first appearance, each carrying the genus sum of its merged class.  The
    returned map sends surviving old edge ids to new edge ids.
    """
    contracted = frozenset(contracted)
    for eid in contracted:
        if not 0 <= eid < g.n_edges:
            raise GraphError(f"unknown edge id {eid}")
        if g.is_loop(eid):
            raise GraphError(f"cannot contract loop edge {eid}; delete it instead")
    ends = _ends(g)
    new_id = _forest(g.n_vertices, [ends[eid] for eid in contracted])[2]
    genus_sum = [0] * (max(new_id) + 1)
    for i, (_, gen) in enumerate(g.vertices):
        genus_sum[new_id[i]] += gen

    edges = []
    edge_map: dict[int, int] = {}
    for eid, (a, b) in enumerate(ends):
        if eid in contracted:
            continue
        edge_map[eid] = len(edges)
        edges.append((new_id[a], new_id[b]))
    return Multigraph(tuple(enumerate(genus_sum)), tuple(edges)), edge_map


def delete_edges(g: Multigraph, removed) -> tuple[Multigraph, dict[int, int]]:
    """Delete an edge set, keeping all vertices.

    Raises GraphError (via the constructor) if the deletion disconnects the
    graph; deleting loops is always safe.
    """
    removed = frozenset(removed)
    for eid in removed:
        if not 0 <= eid < g.n_edges:
            raise GraphError(f"unknown edge id {eid}")
    edges = []
    edge_map: dict[int, int] = {}
    for eid, pair in enumerate(g.edges):
        if eid in removed:
            continue
        edge_map[eid] = len(edges)
        edges.append(pair)
    return Multigraph(g.vertices, tuple(edges)), edge_map


def _cut_vectors(ends) -> list[int]:
    """Bits a and b for each edge (a, b) of vertex indices, 0 for a loop: the
    graphic matroid over GF(2), where forests are the independent sets."""
    return [(1 << a) ^ (1 << b) for a, b in ends]


def _reduce(x: int, basis: tuple) -> tuple | None:
    """`basis` grown by x over GF(2), or None when x lies in its span.

    basis[i] is the basis vector with leading bit i, or 0 where no vector
    has that pivot; an empty basis of n-bit vectors is (0,) * n.  x is
    cleared one pivot at a time and, when anything is left, the rest is
    inserted at its own leading bit.
    """
    while x and (pivot := basis[x.bit_length() - 1]):
        x ^= pivot
    if not x:
        return None
    top = x.bit_length() - 1
    return basis[:top] + (x,) + basis[top + 1:]


def spanning_trees(g: Multigraph) -> list[frozenset[int]]:
    """All spanning trees as edge-id sets, lexicographic by sorted edge ids.

    Include/exclude backtracking (Read & Tarjan, Networks 5, 1975), tree
    branch first: edge i may join the tree if its cut vector is independent
    of the tree's, the cotree if its cycle column is independent of the
    cotree's.  A forest and a disjoint cotree-independent set always extend
    to a spanning tree between them, so every branch ends in a tree.
    """
    ends = _ends(g)
    cuts = _cut_vectors(ends)
    cols = _cycle_columns(ends, g.n_vertices)
    # explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle that stays alive until the cyclic GC
    out: list[frozenset[int]] = []
    stack = [(0, (0,) * g.n_vertices, (0,) * betti(g), ())]
    while stack:
        i, tree_basis, cotree_basis, chosen = stack.pop()
        if i == len(ends):
            out.append(frozenset(chosen))
            continue
        if grown := _reduce(cols[i], cotree_basis):
            stack.append((i + 1, tree_basis, grown, chosen))
        if grown := _reduce(cuts[i], tree_basis):
            stack.append((i + 1, grown, cotree_basis, chosen + (i,)))
    return out


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycle basis: one signed row per non-tree edge.

    cycles: b x e integer matrix with entries in {-1, 0, +1}; row i carries
    +1 at its defining non-tree edge.  tree: the spanning tree used.
    """

    cycles: tuple[tuple[int, ...], ...]
    tree: frozenset[int]


def _kruskal(g: Multigraph, order) -> frozenset[int]:
    """Greedy spanning tree: scan edge ids in `order`, keep each edge whose
    cut vector is independent of the kept edges'.  A minimum-weight tree
    when `order` sorts by weight; loops never join."""
    cuts = _cut_vectors(_ends(g))
    basis = (0,) * g.n_vertices
    tree = set()
    for eid in order:
        if grown := _reduce(cuts[eid], basis):
            basis = grown
            tree.add(eid)
    return frozenset(tree)


def lex_first_spanning_tree(g: Multigraph) -> frozenset[int]:
    """Greedy Kruskal by ascending edge id; the lexicographically first tree."""
    return _kruskal(g, range(g.n_edges))


def cycle_basis_from_tree(g: Multigraph, tree: frozenset[int]) -> CycleBasis:
    """Signed fundamental cycles of `g` relative to a given spanning tree.

    For a non-tree edge k = (t, h) the cycle follows k from t to h and then
    the tree path back from h to t; a tree edge traversed tail-to-head gets
    +1, head-to-tail gets -1.  With path[x] the signed tree edges of the
    walk from the root to x, the row is e_k + path[t] - path[h] (the shared
    part of the two walks cancels; a loop gives e_k).  The tree is rooted
    by `_forest` over its edges in sorted id order.  Raises GraphError
    unless `tree` is a set of v - 1 edge ids that forms one component.
    """
    tree = frozenset(tree)
    if len(tree) != g.n_vertices - 1 or not tree <= set(range(g.n_edges)):
        raise GraphError(f"a spanning tree has v - 1 = {g.n_vertices - 1} edge "
                         f"ids below {g.n_edges}, got {sorted(tree)}")
    ends = _ends(g)
    tree_ids = sorted(tree)
    order, parent_edge, label = _forest(g.n_vertices,
                                        [ends[eid] for eid in tree_ids])
    if any(label):
        # v - 1 edges in two or more components: an edge the forest left
        # out joins two vertices it had already reached
        used = set(parent_edge)
        eid = next(eid for i, eid in enumerate(tree_ids) if i not in used)
        raise GraphError(f"tree edge {eid} closes a cycle")
    path = [[0] * g.n_edges for _ in range(g.n_vertices)]
    for y in order[1:]:
        k = tree_ids[parent_edge[y]]
        t, h = ends[k]
        path[y] = list(path[h if t == y else t])
        path[y][k] = 1 if h == y else -1
    rows = []
    for k, (t, h) in enumerate(ends):
        if k in tree:
            continue
        row = [a - b for a, b in zip(path[t], path[h])]
        row[k] = 1
        rows.append(tuple(row))
    return CycleBasis(tuple(rows), tree)


def fundamental_cycle_basis(g: Multigraph) -> CycleBasis:
    """Cycle basis over the lexicographically first spanning tree."""
    return cycle_basis_from_tree(g, lex_first_spanning_tree(g))
