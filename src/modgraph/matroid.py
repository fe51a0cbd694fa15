"""Cographic matroid rank oracle, density and polytope certificates.

The matroid lives on the edge set of a connected bridgeless multigraph;
its bases are the complements of spanning trees.  The maximal density m,
the maximal attaining set T0, the scaled-base-polytope membership test and
the iterative witness construction are exhaustive scans over all 2^e edge
bitmasks, capped at 20 edges.  Each scan is an exact integer numpy kernel:
ranks are small ints, the witness runs on int64 values scaled by the
density denominator q (every coordinate lies in (1/q)Z for m = p/q), and
the membership test scales by the lcm of its denominators, switching to
Python ints (object arrays) where magnitudes could pass 2^62.  Results
leave the module as Python ints and Fractions.  An independent
covering-LP oracle computes the same constant in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .graphs import Multigraph, betti, bridges, spanning_trees

MAX_GROUND_SET = 20
MAX_LP_TREES = 500


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
        index = {v: i for i, (v, _) in enumerate(graph.vertices)}
        self._ends = [(index[t], index[h]) for t, h in graph.edges]
        self._n_vertices = graph.n_vertices
        self.full_rank = betti(graph)
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

        A read-only int64 array.  comps[T], the component count of the
        spanning subgraph with edge set T, grows one edge at a time: masks
        [2^k, 2^(k+1)) copy the vertex labels of masks [0, 2^k) and merge
        the endpoints of edge k.  Then rk(S) = |S| - comps[E - S] + 1.
        """
        if self._rank_table is None:
            e = self.n_edges
            _check_size(e)
            n = self._n_vertices  # <= e <= 20 for a bridgeless graph
            vertices = np.arange(n, dtype=np.uint8)
            labels = np.empty((1 << e, n), dtype=np.uint8)
            labels[0] = vertices
            for k, (a, b) in enumerate(self._ends):
                old, new = labels[: 1 << k], labels[1 << k: 2 << k]
                new[...] = old
                np.copyto(new, old[:, a:a + 1], where=new == old[:, b:b + 1])
            # A component's label is one of its vertices, which keeps it.
            comps = (labels == vertices).sum(axis=1)
            del labels
            rank = _subset_sums([1] * e, np.int64) - comps[::-1] + 1
            rank.flags.writeable = False
            self._rank_table = rank
        return self._rank_table


def _check_size(e: int):
    if e > MAX_GROUND_SET:
        raise MatroidError(
            f"ground set has {e} edges; exhaustive scans are capped at "
            f"{MAX_GROUND_SET} (contract the graph first)"
        )
    if e == 0:
        raise MatroidError("empty ground set")


def _subset_sums(values, dtype) -> np.ndarray:
    """phi[S] = sum of values[i] over the bits i of S, for every bitmask S."""
    phi = np.zeros(1 << len(values), dtype=dtype)
    for k, x in enumerate(values):
        phi[1 << k: 2 << k] = phi[: 1 << k] + x
    return phi


def _union(selected: np.ndarray) -> int:
    """Bitwise OR of the masks where `selected` holds."""
    return int(np.bitwise_or.reduce(np.flatnonzero(selected)))


def density(matroid: CographicMatroid) -> DensityCertificate:
    """Maximal density m = max |S|/rk(S) and the union T0 of all maximizers.

    Exhaustive scan over all nonempty subsets; T0 attains the maximum by
    union closure of maximizers, which is rechecked here.
    """
    e = matroid.n_edges
    _check_size(e)
    rank = matroid.rank_table()
    sizes = _subset_sums([1] * e, np.int64)
    # The maximum as an exact fraction p/q: the largest |S| at each rank.
    p, q = 0, 1
    for rk in range(1, matroid.full_rank + 1):
        size = int(sizes[rank == rk].max())
        if size * q > p * rk:
            p, q = size, rk
    m = Fraction(p, q)
    t0_mask = _union(sizes * q == p * rank)
    t0 = frozenset(i for i in range(e) if t0_mask >> i & 1)
    if len(t0) * q != p * int(rank[t0_mask]):
        raise CertificateError(
            "union of density maximizers fails to attain the maximum"
        )
    return DensityCertificate(m=m, t0=t0)


def in_scaled_polytope(matroid: CographicMatroid, w, t) -> bool:
    """Exact membership of w in t*P(M): 0 <= phi_S(w) <= t*rk(S) for all S,
    with equality phi_E(w) = t*rk(E)."""
    e = matroid.n_edges
    _check_size(e)
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
    dtype = np.int64 if bound < 1 << 62 else object
    phi = _subset_sums(ints, dtype)
    limit = rank.astype(dtype) * cap
    full = (1 << e) - 1
    if phi[full] != limit[full]:
        return False
    return bool((phi >= 0).all() and (phi <= limit).all())


def build_witness(matroid: CographicMatroid) -> DensityCertificate:
    """Constructive witness w >= 1 with w in m*P(M), certifying the threshold.

    Iterative tightening: starting from the all-ones vector, repeatedly pick
    the smallest edge outside the maximal tight family and raise its
    coordinate by the largest feasible amount.  The maximal tight set grows
    strictly, so at most e rounds occur.  The walk runs on int64 values
    scaled by q, where m = p/q, tracking slack[S] = p*rk(S) - q*phi_S(w),
    which stays within [0, p*e] (p <= e <= 20).
    The result is rechecked against the polytope definition before being
    returned.
    """
    e = matroid.n_edges
    cert = density(matroid)
    m = cert.m
    p, q = m.numerator, m.denominator
    full = (1 << e) - 1

    w = [q] * e
    slack = p * matroid.rank_table() - _subset_sums(w, np.int64)
    tight = _union(slack == 0)
    if not tight:
        raise CertificateError("no tight set at the all-ones start")
    rounds = 0
    while tight != full:
        rounds += 1
        if rounds > e:
            raise CertificateError("tight family stopped growing")
        ek = next(i for i in range(e) if not tight >> i & 1)
        # The masks containing edge ek, as a view of slack.
        with_ek = slack.reshape(-1, 2, 1 << ek)[:, 1, :]
        eps = int(with_ek.min())
        if eps <= 0:
            raise CertificateError("no positive slack outside the tight family")
        w[ek] += eps
        with_ek -= eps
        new_tight = _union(slack == 0)
        if new_tight & tight != tight or new_tight == tight:
            raise CertificateError("tight family stopped growing")
        tight = new_tight

    witness = tuple(Fraction(x, q) for x in w)
    if any(x < 1 for x in witness):
        raise CertificateError("witness dropped below the all-ones floor")
    if not in_scaled_polytope(matroid, witness, m):
        raise CertificateError("witness failed the scaled-polytope recheck")
    return DensityCertificate(m=m, t0=cert.t0, witness=witness)


def cover_lp_oracle(g: Multigraph, max_trees: int = MAX_LP_TREES) -> Fraction:
    """Covering-LP value: min sum c_T with sum_T c_T * v_T >= (1,...,1).

    v_T is the indicator of the complement of spanning tree T.  Solved with
    the exact rational simplex; independent of the density route.
    """
    if bridges(g):
        raise MatroidError("covering LP needs a bridgeless graph")
    trees = spanning_trees(g)
    if len(trees) > max_trees:
        raise MatroidError(
            f"{len(trees)} spanning trees exceeds the LP guard ({max_trees})"
        )
    e = g.n_edges
    cols = len(trees)
    a = [[Fraction(0)] * cols for _ in range(e)]
    for j, tree in enumerate(trees):
        for eid in range(e):
            if eid not in tree:
                a[eid][j] = Fraction(1)
    value, _ = simplex.minimize([Fraction(1)] * cols, a, [Fraction(1)] * e)
    return value
