"""Test oracles shared by several test modules."""

import itertools

from modgraph import Multigraph


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integers read as bit vectors."""
    basis: list[int] = []
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def cap_graph():
    """K4 with every edge subdivided into a 3-path (18 edges), one loop
    (edge 18) and one pendant bridge (edge 19): 20 edges; the 19-edge core
    has c = 6."""
    edges, v = [], 4
    for a, b in itertools.combinations(range(4), 2):
        edges += [(a, v), (v, v + 1), (v + 1, b)]
        v += 2
    edges += [(0, 0), (1, v)]
    return Multigraph(tuple((i, 0) for i in range(v + 1)), tuple(edges))
