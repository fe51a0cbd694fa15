"""Inputs and fixed op lists of the three benchmark workloads.

Every graph is built here, from the workload seed alone, so the program
under test sees only the generated files and flags.  Graphs are plain
``(n_vertices, edges)`` pairs with vertices ``0..n-1``; ``graph_json``
renders them in the CLI's JSON input format.

Why these workloads:

* ``certify`` -- the determinant route, the 2^e matroid scans and the
  exact simplex do nearly all the work; probe and search code is not run.
* ``search`` -- the same graph and matroid rank machinery as hundreds of
  thousands of tiny calls instead of a few huge scans, so fixed cost per
  call shows here.
* ``probe`` -- the numpy Monte Carlo and quadrature kernels dominate and
  the certify layers are negligible at <= 6 edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import tree_count

WORKLOADS = ("certify", "search", "probe")
DEFAULT_SEED = 1
LP_MAX_TREES = 250
RANDOM_GRAPHS = 16


def ngon(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def doubled_2ngon(n):
    """2n-gon with every other side doubled (3n edges, b = n + 1, c = n)."""
    v = 2 * n
    edges = [(i, (i + 1) % v) for i in range(v)]
    edges += [(i, i + 1) for i in range(0, v, 2)]
    return v, edges


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def wheel6_plus_chord():
    """Hub 6 over the rim 0..5, plus the rim chord (0, 3): 13 edges, b = 7."""
    rim = [(i, (i + 1) % 6) for i in range(6)]
    return 7, rim + [(i, 6) for i in range(6)] + [(0, 3)]


def cap_graph():
    """The 20-edge cap graph: K4 with every edge subdivided into a 3-path,
    one loop and one pendant bridge.  Its 19-edge core has c = 6."""
    v = 4
    edges = []
    for a, b in complete(4)[1]:
        p, q = v, v + 1
        v += 2
        edges += [(a, p), (p, q), (q, b)]
    edges.append((0, 0))
    edges.append((1, v))
    return v + 1, edges


def theta():
    return 2, [(0, 1)] * 3


def banana4():
    return 2, [(0, 1)] * 4


def double_triangle():
    return 5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


def doubled_2ngon_loops(n, loops):
    v, edges = doubled_2ngon(n)
    return v, edges + [(0, 0)] * loops


def random_multigraph(rng: random.Random):
    """Connected multigraph: 3-8 vertices, 6-12 edges, 1 <= b <= 5.

    A random spanning tree plus b random extra edges, so loops, parallel
    edges and bridges all occur; labels and edge order are shuffled.
    """
    while True:
        v = rng.randint(3, 8)
        b = rng.randint(1, 5)
        if 6 <= v - 1 + b <= 12:
            break
    edges = [(rng.randrange(k), k) for k in range(1, v)]
    edges += [(rng.randrange(v), rng.randrange(v)) for _ in range(b)]
    label = list(range(v))
    rng.shuffle(label)
    edges = [(label[a], label[b_]) if rng.random() < 0.5 else (label[b_], label[a])
             for a, b_ in edges]
    rng.shuffle(edges)
    return v, edges


def graph_json(graph) -> dict:
    v, edges = graph
    return {
        "vertices": [{"id": i, "genus": 0} for i in range(v)],
        "edges": [[a, b] for a, b in edges],
    }


@dataclass
class Op:
    """One operation of a pass.

    kind: "analyze" (CLI analyze, optionally with --probe), "lp" (covering
    LP on the core of the analyze op it follows), "search" or "probe" (CLI
    probe).  seed_free ops have output that does not depend on the seed, so
    their digests are checked on every seed, not only the default one.
    """

    id: str
    kind: str
    graph_name: str | None = None
    graph: tuple | None = None
    expect_c: Fraction | None = None
    seed_free: bool = True
    args: list = field(default_factory=list)
    target: Fraction | None = None
    genus: int | None = None


def _analyze(name, graph, expect_c=None, seed_free=True, lp=None):
    ops = [Op(f"analyze:{name}", "analyze", name, graph, expect_c, seed_free)]
    if lp is None:
        lp = tree_count(*graph) <= LP_MAX_TREES
    if lp:
        ops.append(Op(f"lp:{name}", "lp", name, graph, expect_c, seed_free))
    return ops


def certify_ops(seed: int) -> list[Op]:
    ops = []
    ops += _analyze("W6+chord", wheel6_plus_chord())
    ops += _analyze("cap20", cap_graph(), Fraction(6))
    ops += _analyze("K5", complete(5), Fraction(5, 3))
    for n in (4, 5):
        ops += _analyze(f"D{n}", doubled_2ngon(n), Fraction(n))
    rng = random.Random(seed)
    for i in range(RANDOM_GRAPHS):
        ops += _analyze(f"random{i:02d}", random_multigraph(rng), seed_free=False)
    return ops


SEARCHES = (
    # (genus, max_edges, target): filter-heavy, then hit-heavy
    (6, 11, Fraction(5)),
    (5, 13, Fraction(3)),
)


def search_ops(seed: int) -> list[Op]:
    return [
        Op(f"search:g{g}e{e}t{t}", "search", genus=g, target=t,
           args=["--genus", str(g), "--max-edges", str(e), "--target", str(t)])
        for g, e, t in SEARCHES
    ]


def probe_ops(seed: int) -> list[Op]:
    named = [
        ("theta", theta(), Fraction(3, 2)),
        ("P3", ngon(3), Fraction(3)),
        ("K4", complete(4), Fraction(2)),
        ("D2", doubled_2ngon(2), Fraction(2)),
        ("double_triangle", double_triangle(), Fraction(3)),
        ("P6", ngon(6), Fraction(6)),
    ]
    ops = [Op(f"analyze-probe:{name}", "analyze", name, graph, c, seed_free=False,
              args=["--probe"])
           for name, graph, c in named]
    # s = 4/3 is the banana's threshold; the CLI takes s as a float.
    ops.append(Op("probe:banana4", "probe", "banana4", banana4(), Fraction(4, 3),
                  seed_free=False,
                  args=["--method", "tensor_quadrature", "--s", repr(4 / 3)]))
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    return {"certify": certify_ops, "search": search_ops,
            "probe": probe_ops}[workload](seed)
