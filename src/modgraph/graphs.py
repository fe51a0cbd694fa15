"""Connected multigraphs with genus-labelled vertices.

Edges are ordered (tail, head) pairs; the position of an edge in the edge
tuple is its edge id, and the (tail, head) order fixes the orientation used
for cycle signs.  Loops and parallel edges are allowed.  Every value is
immutable and every operation is a pure function returning new graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed, dangling or disconnected graph input."""


@dataclass(frozen=True)
class Multigraph:
    """A connected undirected multigraph.

    vertices: tuple of (vertex id, genus); edges: tuple of (tail, head).
    Connectivity is enforced at construction; a single vertex with no
    edges counts as connected.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", tuple((int(v), int(g)) for v, g in self.vertices)
        )
        object.__setattr__(
            self, "edges", tuple((int(t), int(h)) for t, h in self.edges)
        )
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
        if _component_count(self.vertices, self.edges) != 1:
            raise GraphError("graph is disconnected")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.vertices)

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


def _component_count(vertices, edges, skip=frozenset()) -> int:
    """Components of (vertices, edges) ignoring edge ids in `skip`."""
    index = {v: i for i, (v, _) in enumerate(vertices)}
    n = len(index)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for eid, (t, h) in enumerate(edges):
        if eid in skip:
            continue
        a, b = find(index[t]), find(index[h])
        if a != b:
            parent[a] = b
            comps -= 1
    return comps


def component_count(g: Multigraph, removed_edges=frozenset()) -> int:
    """Number of connected components after deleting `removed_edges`."""
    return _component_count(g.vertices, g.edges, frozenset(removed_edges))


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


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose deletion disconnects the graph; loops never qualify.

    Deletion test per edge; fine at desk scale.
    """
    out = set()
    for eid in range(g.n_edges):
        if g.is_loop(eid):
            continue
        if _component_count(g.vertices, g.edges, {eid}) > 1:
            out.add(eid)
    return frozenset(out)


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
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in contracted:
        t, h = g.edges[eid]
        a, b = find(index[t]), find(index[h])
        if a != b:
            parent[a] = b

    new_id: dict[int, int] = {}
    genus_sum: dict[int, int] = {}
    for i, (_, gen) in enumerate(g.vertices):
        root = find(i)
        if root not in new_id:
            new_id[root] = len(new_id)
        genus_sum[root] = genus_sum.get(root, 0) + gen
    vertices = tuple(
        (new_id[root], genus_sum[root])
        for root in sorted(new_id, key=new_id.get)
    )

    edges = []
    edge_map: dict[int, int] = {}
    for eid, (t, h) in enumerate(g.edges):
        if eid in contracted:
            continue
        edge_map[eid] = len(edges)
        edges.append((new_id[find(index[t])], new_id[find(index[h])]))
    return Multigraph(vertices, tuple(edges)), edge_map


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


def _canon_labels(labels) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def spanning_trees(g: Multigraph) -> list[frozenset[int]]:
    """All spanning trees as edge-id sets.

    Recursive deletion-contraction over edge ids with memoized connectivity
    for the deletion branch.  Output ordered lexicographically by sorted
    edge ids; loops never belong to a tree.
    """
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    ends = [(index[t], index[h]) for t, h in g.edges]
    e = g.n_edges
    conn_cache: dict[tuple[int, tuple[int, ...]], bool] = {}

    def connects(i: int, labels: tuple[int, ...]) -> bool:
        k = max(labels) + 1
        if k == 1:
            return True
        key = (i, labels)
        hit = conn_cache.get(key)
        if hit is not None:
            return hit
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = k
        for j in range(i, e):
            a, b = find(labels[ends[j][0]]), find(labels[ends[j][1]])
            if a != b:
                parent[a] = b
                comps -= 1
        res = comps == 1
        conn_cache[key] = res
        return res

    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def rec(i: int, labels: tuple[int, ...]):
        if max(labels) == 0:
            out.append(frozenset(chosen))
            return
        if i == e:
            return
        a, b = labels[ends[i][0]], labels[ends[i][1]]
        if a != b:
            merged = _canon_labels(tuple(a if x == b else x for x in labels))
            chosen.append(i)
            rec(i + 1, merged)
            chosen.pop()
        if connects(i + 1, labels):
            rec(i + 1, labels)

    rec(0, _canon_labels(tuple(range(g.n_vertices))))
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycle basis: one signed row per non-tree edge.

    cycles: b x e integer matrix with entries in {-1, 0, +1}; row i carries
    +1 at its defining non-tree edge.  tree: the spanning tree used.
    """

    cycles: tuple[tuple[int, ...], ...]
    tree: frozenset[int]


def lex_first_spanning_tree(g: Multigraph) -> frozenset[int]:
    """Greedy Kruskal by ascending edge id; the lexicographically first tree."""
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for eid, (t, h) in enumerate(g.edges):
        a, b = find(index[t]), find(index[h])
        if a != b:
            parent[a] = b
            tree.add(eid)
    return frozenset(tree)


def cycle_basis_from_tree(g: Multigraph, tree: frozenset[int]) -> CycleBasis:
    """Signed fundamental cycles of `g` relative to a given spanning tree.

    For a non-tree edge e = (t, h) the cycle follows e from t to h and then
    the tree path back from h to t; a tree edge traversed tail-to-head gets
    +1, head-to-tail gets -1.
    """
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(g.n_vertices)}
    for eid in sorted(tree):
        t, h = g.edges[eid]
        adj[index[t]].append((index[h], eid))
        adj[index[h]].append((index[t], eid))

    rows = []
    for eid in range(g.n_edges):
        if eid in tree:
            continue
        row = [0] * g.n_edges
        row[eid] = 1
        t, h = g.edges[eid]
        ti, hi = index[t], index[h]
        if ti != hi:
            # BFS rooted at the tail; climbing from the head walks the
            # tree path in the cycle's traversal direction.
            parent_step: dict[int, tuple[int, int]] = {ti: (ti, -1)}
            queue = [ti]
            while queue and hi not in parent_step:
                nxt = []
                for x in queue:
                    for y, te in adj[x]:
                        if y not in parent_step:
                            parent_step[y] = (x, te)
                            nxt.append(y)
                queue = nxt
            x = hi
            while x != ti:
                px, te = parent_step[x]
                t2, _ = g.edges[te]
                row[te] = 1 if index[t2] == x else -1
                x = px
        rows.append(tuple(row))
    return CycleBasis(tuple(rows), frozenset(tree))


def fundamental_cycle_basis(g: Multigraph) -> CycleBasis:
    """Cycle basis over the lexicographically first spanning tree."""
    return cycle_basis_from_tree(g, lex_first_spanning_tree(g))
