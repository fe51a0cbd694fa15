"""Cographic matroid rank oracle, density and polytope certificates.

The matroid lives on the edge set of a connected bridgeless multigraph;
its bases are the complements of spanning trees.  The maximal density m,
the maximal attaining set T0, the scaled-base-polytope membership test and
the witness, the greedy vertex on the least-slack prefix chain, are
exhaustive scans over all 2^e edge bitmasks, capped at 20 edges.  Each
scan is an exact integer numpy kernel.
The matroid of a graph is the direct sum of its blocks' matroids
(`_blocks`), so `density` and `build_witness` run every scan per block,
over one table of 2^e_i masks for each block's e_i edges, through one
pass over one split (`_block_density`); the cap still holds on the whole
ground set, and a graph of one block is scanned whole.
Rank tables come from one stacked kernel over graphs with one vertex and
edge count: a matroid's table is its one-row case, and the search builds
every table in stacks of at most STACK_ENTRIES entries (`_stack_rows`).

Every 2^e array holds the smallest exact dtype.  Ranks and subset sizes
are int8 (at most 20).  The density scan over a stack of tables reads
each mask's value |S|/rk(S) as an int16 code, ordered like the values,
with one gather from a cached table over the (rank, size) pairs.  The
witness is int16 (products at most 20 x 20) and runs on values scaled by
the density denominator q (every coordinate lies in (1/q)Z for m = p/q).
The membership test scales by the lcm of its denominators and picks
int16, int32, int64 or Python ints (object arrays) from the largest
magnitude it can meet.  Every product of such an array with a Python int
names its dtype, as in `np.multiply(rank, p, dtype=np.int16)`: `p * rank`
would stay int8 and wrap silently.

Results leave the module as Python ints and Fractions.  An independent
covering-LP oracle computes the same constant exactly by column
generation, its master solved through its dual by the one-phase
integer-pivoting simplex in `simplex.py`: it reads neither the rank table
nor the density scan, and it prices columns with Kruskal instead of
listing spanning trees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .graphs import (
    Multigraph,
    _components,
    _cycle_columns,
    _ends,
    _kruskal,
    bridges,
)

MAX_GROUND_SET = 20
# Rank-table entries (graphs x 2^e) of every stacked `_rank_tables` call
# of the search, the pre-filter's and the recheck's (`_stack_rows`).
STACK_ENTRIES = 1 << 16


class MatroidError(ValueError):
    """Invalid matroid input (bridges present, ground set too large, ...)."""


class CertificateError(RuntimeError):
    """An internal certificate recheck failed; signals an implementation bug."""


@dataclass(frozen=True)
class DensityCertificate:
    """Certificate for the maximal density m of a cographic matroid.

    m: exact maximum of |S|/rk(S) over nonempty edge subsets.
    t0: the union of all maximizers (itself a maximizer).
    witness: vector w with w_e >= 1 and w in m*P(M), or None if not built.
    """

    m: Fraction
    t0: frozenset[int]
    witness: tuple[Fraction, ...] | None = None


class CographicMatroid:
    """Rank oracle over edge subsets of a connected bridgeless multigraph."""

    def __init__(self, graph: Multigraph):
        blocked = bridges(graph)
        if blocked:
            raise MatroidError(
                f"graph has bridges {sorted(blocked)}; contract them first"
            )
        self.graph = graph
        self.n_edges = graph.n_edges
        self._ends = _ends(graph)
        self._rank_table: np.ndarray | None = None

    def corank(self, subset) -> int:
        """Matroid rank of an edge subset: |S| - (components(G - S) - 1)."""
        mask = 0
        for eid in subset:
            if not 0 <= eid < self.n_edges:
                raise MatroidError(f"edge id {eid} outside the ground set")
            mask |= 1 << eid
        return int(self.rank_table()[mask])

    def rank_table(self) -> np.ndarray:
        """Rank of every subset, indexed by bitmask; built once per matroid.

        A read-only int8 array: the one-row case of `_rank_tables`.  Every
        exhaustive scan reads it, so the MAX_GROUND_SET cap is checked here.
        """
        if self._rank_table is None:
            _check_ground_set(self.n_edges)
            rank = _rank_tables(self.graph.n_vertices, [self._ends])[0]
            rank.flags.writeable = False
            self._rank_table = rank
        return self._rank_table


def _check_ground_set(n_edges: int):
    """Raise unless the exhaustive scans may run over n_edges edges."""
    if n_edges > MAX_GROUND_SET:
        raise MatroidError(
            f"ground set has {n_edges} edges; exhaustive scans "
            f"are capped at {MAX_GROUND_SET} (contract the graph first)"
        )
    if n_edges == 0:
        raise MatroidError("empty ground set")


def _blocks(matroid: CographicMatroid
            ) -> list[tuple[tuple[int, ...], CographicMatroid]]:
    """The connected components of a cographic matroid, one per block of
    its graph (`_components` of its cycle columns), by smallest edge id:
    each block's edge ids, ascending, and the matroid of those edges on a
    copy of the block, its vertices renumbered in order of first use.
    Not cached: `build_witness` splits once and shares the split with
    `_block_density`.

    A matroid of one block is its own component and gets no copy.  The
    edge cap holds on the whole ground set, which no block's table would
    check.
    """
    ends = matroid._ends
    blocks = _components(_cycle_columns(ends, matroid.graph.n_vertices))
    if len(blocks) == 1:
        return [(blocks[0], matroid)]
    _check_ground_set(matroid.n_edges)
    parts = []
    for ids in blocks:
        index: dict[int, int] = {}
        block = tuple((index.setdefault(a, len(index)),
                       index.setdefault(b, len(index)))
                      for a, b in (ends[i] for i in ids))
        vertices = tuple((v, 0) for v in range(len(index)))
        parts.append((ids, CographicMatroid(Multigraph(vertices, block))))
    return parts


def _stack_rows(e: int) -> int:
    """Graphs per `_rank_tables` call: STACK_ENTRIES table entries, or one
    graph when its table alone is larger."""
    return max(1, STACK_ENTRIES >> e)


def _rank_tables(n: int, ends_stack) -> np.ndarray:
    """Cographic rank tables of a stack of graphs on n vertices with one
    edge count e, as one int8 row of 2^e ranks per graph (every rank is at
    most e <= 20).

    comps[T], the component count of the spanning subgraph with edge set T,
    grows one edge at a time: masks [2^k, 2^(k+1)) copy the vertex labels
    of masks [0, 2^k) and merge the endpoints of edge k, which loses one
    component exactly when their labels differ.  The labels are held
    vertex-major, (graphs, n, 2^(e-1)) uint8, so each step reads and writes
    contiguous runs of masks; the last edge needs only the comparison of
    its endpoints' labels, so no labels are kept for masks holding it.
    Then rk(S) = |S| - comps[E - S] + 1.
    """
    ends = np.asarray(ends_stack, dtype=np.intp).reshape(len(ends_stack), -1, 2)
    rows, e = ends.shape[:2]
    at = np.arange(rows)
    labels = np.empty((rows, n, 1 << (e - 1)), dtype=np.uint8)
    labels[:, :, 0] = np.arange(n)
    comps = np.empty((rows, 1 << e), dtype=np.int8)
    comps[:, 0] = n
    for k in range(e):
        old = labels[..., : 1 << k]
        head, tail = old[at, ends[:, k, 0]], old[at, ends[:, k, 1]]
        comps[:, 1 << k: 2 << k] = comps[:, : 1 << k] - (head != tail)
        if k < e - 1:
            new = labels[..., 1 << k: 2 << k]
            new[...] = old
            np.copyto(new, head[:, None], where=old == tail[:, None])
    del labels
    rank = _subset_sums([1] * e, np.int8) - comps[:, ::-1]
    rank += 1
    return rank


def _subset_sums(values, dtype) -> np.ndarray:
    """phi[S] = sum of values[i] over the bits i of S, for every bitmask S."""
    phi = np.zeros(1 << len(values), dtype=dtype)
    for k, x in enumerate(values):
        phi[1 << k: 2 << k] = phi[: 1 << k] + x
    return phi


def _union(selected: np.ndarray) -> np.ndarray:
    """Bitwise OR of the masks where `selected` holds, for each row of a
    (rows, 2^e) bool stack, as int32.

    Bit i is set when `selected` holds on a mask with bit i.  Going down
    from the top edge, each row is folded onto its lower half (OR over the
    bits above i), and bit i is one `any` over the upper half of the fold.
    """
    rows, size = selected.shape
    e = size.bit_length() - 1
    bits = np.empty((rows, e), dtype=bool)
    for i in reversed(range(e)):
        low, high = selected[:, : 1 << i], selected[:, 1 << i:]
        high.any(axis=1, out=bits[:, i])
        selected = low | high
    return bits @ (1 << np.arange(e, dtype=np.int32))


def density(matroid: CographicMatroid) -> DensityCertificate:
    """Maximal density m = max |S|/rk(S) and the union T0 of all maximizers,
    from the matroid's `_blocks` (`_block_density`)."""
    return _block_density(_blocks(matroid))


def _block_density(blocks) -> DensityCertificate:
    """`density` of the direct sum of `blocks`, (edge ids, matroid) pairs.

    m is the largest m of a block, since sum |S_i| / sum rk(S_i) <= max
    |S_i| / rk(S_i), and T0 is the union of the T0 of the blocks that
    attain it (Oxley, "Matroid Theory", 2nd ed., 2011, on direct sums).
    Each block is an exhaustive scan over its nonempty subsets, the
    one-row case of `_densities`; T0 attains the maximum by union closure
    of maximizers, which is rechecked there.
    """
    found = [_densities(block.rank_table()[None])[0] for _, block in blocks]
    m = max(m_i for m_i, _ in found)
    return DensityCertificate(m=m, t0=frozenset(
        i for (ids, _), (m_i, t0) in zip(blocks, found) if m_i == m
        for k, i in enumerate(ids) if t0 >> k & 1))


@functools.lru_cache(maxsize=None)
def _density_order(e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values |S|/rk(S) of the subsets of e edges in increasing order:
    an int16 code per (rank, size) pair at index rank * (e + 1) + size, and
    the value p/q of each code as arrays p and q.

    Equal values share a code, and rank 0 takes code 0 (value 0/1), below
    every value.  The codes rank the exact integer keys size * (L // rank),
    where L is the lcm of 1..e, so no Fraction is compared.
    """
    lcm = math.lcm(*range(1, e + 1))
    rank, size = np.divmod(np.arange((e + 1) ** 2), e + 1)
    keys = np.where(rank > 0, size * (lcm // np.maximum(rank, 1)), -1)
    _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    out = codes.astype(np.int16), size[first], np.maximum(rank[first], 1)
    for array in out:
        array.flags.writeable = False  # shared by every caller
    return out


def _densities(ranks: np.ndarray) -> list[tuple[Fraction, int]]:
    """(m, T0 as a bitmask) for each row of a stack of rank tables.

    One gather maps every mask to the int16 code of |S|/rk(S) in
    `_density_order`; m = p/q is the value of the row's largest code, and
    T0 is the union of the masks holding it.  A T0 with q|S| != p rk(S)
    raises.
    """
    rows, size = ranks.shape
    e = size.bit_length() - 1
    order, p_of, q_of = _density_order(e)
    sizes = _subset_sums([1] * e, np.int8)
    index = np.multiply(ranks, e + 1, dtype=np.int16)
    index += sizes
    codes = order[index]
    del index
    best = codes.max(axis=1)
    p, q = p_of[best], q_of[best]
    t0 = _union(codes == best[:, None])
    if (sizes[t0] * q != p * ranks[np.arange(rows), t0]).any():
        raise CertificateError(
            "union of density maximizers fails to attain the maximum"
        )
    return [(Fraction(a, b), t)
            for a, b, t in zip(p.tolist(), q.tolist(), t0.tolist())]


def in_scaled_polytope(matroid: CographicMatroid, w, t) -> bool:
    """Exact membership of w in t*P(M): 0 <= phi_S(w) <= t*rk(S) for all S,
    with equality phi_E(w) = t*rk(E)."""
    e = matroid.n_edges
    w = [Fraction(x) for x in w]
    if len(w) != e:
        raise MatroidError("weight vector length must equal the edge count")
    t = Fraction(t)
    rank = matroid.rank_table()
    # Scale everything by the lcm of the denominators: exact integers.
    scale = math.lcm(t.denominator, *(x.denominator for x in w))
    ints = [x.numerator * (scale // x.denominator) for x in w]
    cap = t.numerator * (scale // t.denominator)
    # Every partial sum and every cap * rk(S) is at most `bound` in size.
    bound = max(sum(abs(x) for x in ints), abs(cap) * e)
    dtype = next((kind for kind in (np.int16, np.int32, np.int64)
                  if bound <= np.iinfo(kind).max), object)
    phi = _subset_sums(ints, dtype)
    limit = np.multiply(rank, cap, dtype=dtype)
    full = (1 << e) - 1
    if phi[full] != limit[full]:
        return False
    return bool((phi >= 0).all() and (phi <= limit).all())


def build_witness(matroid: CographicMatroid) -> DensityCertificate:
    """Constructive witness w >= 1 with w in m*P(M), certifying the threshold.

    m and T0 are `density`'s, read from one split into `_blocks` that
    `_block_density` shares, and w is each block's `_witness` at that
    global m.  f(S) = m*rk(S) - |S| and its superset minimum g are sums
    over the blocks, so the greedy vertex along the whole prefix chain is
    each block's along its induced edge order, and w lies in m*P(M), the
    product of the blocks' m*P(M_i), when each part lies in its own.
    """
    blocks = _blocks(matroid)
    cert = _block_density(blocks)
    witness: dict[int, Fraction] = {}
    for ids, block in blocks:
        witness.update(zip(ids, _witness(block, cert.m)))
    return DensityCertificate(m=cert.m, t0=cert.t0, witness=tuple(
        witness[i] for i in range(matroid.n_edges)))


def _witness(matroid: CographicMatroid, m: Fraction) -> tuple[Fraction, ...]:
    """Witness w >= 1 in m*P(M) for any m at least the matroid's density.

    f(S) = m*rk(S) - |S| is submodular and >= 0, so g(S) = min of f(T)
    over the supersets T of S is a polymatroid rank function.  Edmonds'
    greedy algorithm ("Submodular functions, matroids and certain
    polyhedra", 1970) gives its vertex u on the prefix chain {0..i}:
    u_i = g({0..i}) - g({0..i-1}), so u >= 0, u(S) <= g(S) <= f(S) and
    u(E) = f(E), and w = 1 + u lies in m*P(M).  It reads one int16 table
    slack[S] = p*rk(S) - q*|S| = q*f(S), m = p/q, within [0, p*e] (at most
    400), and each g({0..i}) is one strided min.  The result is rechecked
    against the polytope definition before being returned.
    """
    e = matroid.n_edges
    p, q = m.numerator, m.denominator
    slack = np.multiply(matroid.rank_table(), p, dtype=np.int16)
    slack -= _subset_sums([q] * e, np.int16)
    # The masks holding the prefix {0..i} are every (2 << i)-th from its own.
    chain = [0] + [int(slack[(2 << i) - 1::2 << i].min()) for i in range(e)]
    witness = tuple(Fraction(q + chain[i + 1] - chain[i], q) for i in range(e))
    if any(x < 1 for x in witness):
        raise CertificateError("witness dropped below the all-ones floor")
    if not in_scaled_polytope(matroid, witness, m):
        raise CertificateError("witness failed the scaled-polytope recheck")
    return witness


def cover_lp_oracle(g: Multigraph) -> Fraction:
    """Covering-LP value: min sum c_T with sum_T c_T * v_T >= (1,...,1).

    v_T is the indicator of the complement of spanning tree T.  Exact
    column generation, independent of the density route: the restricted
    master is solved with its dual y by the exact simplex, which runs one
    phase on the dual from y = 0 (feasible, as every cost is 1) with
    integer pivoting over a common denominator, and the tree maximizing
    y(E - T) is a minimum-weight tree, found by one Kruskal on y.  It
    stops when that maximum is <= 1, which is the dual feasibility check; x is rechecked as
    a cover and y against strong duality.  No spanning-tree list is built.
    An edgeless graph raises MatroidError, as `density` does.
    """
    if bridges(g):
        raise MatroidError("covering LP needs a bridgeless graph")
    e = g.n_edges
    if e == 0:
        raise MatroidError("empty ground set")
    edges = range(e)
    # Edge i last: a bridgeless graph's greedy tree then avoids it.
    trees = list(dict.fromkeys(
        _kruskal(g, [*(j for j in edges if j != i), i]) for i in edges
    ))
    while True:
        a = [[int(i not in tree) for tree in trees] for i in edges]
        value, x, y = simplex.minimize([1] * len(trees), a, [1] * e)
        light = _kruskal(g, sorted(edges, key=lambda i: (y[i], i)))
        if sum(y) - sum(y[i] for i in light) <= 1:
            break
        if light in trees:
            raise CertificateError("pricing returned a column of the master")
        trees.append(light)

    if any(xj < 0 for xj in x) or any(
        sum(xj for xj, tree in zip(x, trees) if i not in tree) < 1
        for i in edges
    ):
        raise CertificateError("covering-LP primal is not a cover")
    if any(yi < 0 for yi in y) or sum(y) != sum(x):
        raise CertificateError("covering-LP dual fails strong duality")
    return value
