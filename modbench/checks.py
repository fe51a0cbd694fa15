"""Independent checks of every op's output.

Nothing here imports modgraph: spanning trees are counted with the
matrix-tree theorem and bridges are found with a union-find of our own, so
a defect in the program cannot hide in its own cross-checks.  Each check
function returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def tree_count(n_vertices: int, edges) -> int:
    """Spanning trees of a multigraph: det of the reduced Laplacian.

    Loops do not enter the Laplacian; parallel edges add up.
    """
    lap = np.zeros((n_vertices, n_vertices))
    for a, b in edges:
        if a != b:
            lap[a, a] += 1
            lap[b, b] += 1
            lap[a, b] -= 1
            lap[b, a] -= 1
    det = float(np.linalg.det(lap[1:, 1:])) if n_vertices > 1 else 1.0
    count = round(det)
    if abs(det - count) > 1e-6 * max(1.0, abs(det)):
        raise ValueError(f"matrix-tree determinant {det} is not an integer")
    return count


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.comps = n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.comps -= 1


def components(n_vertices: int, edges, skip: int | None = None) -> int:
    uf = UnionFind(n_vertices)
    for eid, (a, b) in enumerate(edges):
        if eid != skip:
            uf.union(a, b)
    return uf.comps


def bridge_ids(n_vertices: int, edges) -> list[int]:
    base = components(n_vertices, edges)
    return [eid for eid, (a, b) in enumerate(edges)
            if a != b and components(n_vertices, edges, eid) > base]


def betti(n_vertices: int, edges) -> int:
    return len(edges) - n_vertices + components(n_vertices, edges)


def _graph_of(data: dict):
    """(n_vertices, edges) from the CLI's graph JSON, relabelled 0..n-1."""
    index = {v["id"]: i for i, v in enumerate(data["vertices"])}
    return len(index), [(index[a], index[b]) for a, b in data["edges"]]


def _frac(fields: dict) -> Fraction:
    return Fraction(fields["fraction"])


def check_analyze(report: dict, graph, expect_c: Fraction | None) -> list[str]:
    """Checks on one ``modgraph analyze`` JSON report of ``graph``."""
    errors = []
    n, edges = graph
    b = betti(n, edges)
    if report["summary"]["betti"] != b:
        errors.append(f"betti {report['summary']['betti']} != {b}")
    if sorted(report["bridges"]) != bridge_ids(n, edges):
        errors.append("bridge list differs from the union-find bridges")
    if b == 0:
        if report["variant"] != "no_cycles":
            errors.append("tree input not reported as no_cycles")
        return errors
    trees = tree_count(n, edges)
    if report["psi"]["terms"] != trees:
        errors.append(f"psi.terms {report['psi']['terms']} != {trees} "
                      "spanning trees (matrix-tree)")
    if report["psi"]["routes_agree"] is not True:
        errors.append("Kirchhoff routes do not agree")
    c = _frac(report["c"])
    core = report["core"]
    if c < Fraction(core["edges"], core["betti"]):
        errors.append(f"c = {c} below core e/b = {core['edges']}/{core['betti']}")
    opt = report["optimal_contraction"]
    gbar = _graph_of(opt["graph"])
    if (Fraction(len(gbar[1]), betti(*gbar)) != c
            or _frac(opt["c"]) != c):
        errors.append("optimal contraction does not have c = e/b")
    if bridge_ids(*gbar):
        errors.append("optimal contraction has a bridge")
    if expect_c is not None and c != expect_c:
        errors.append(f"c = {c}, closed form says {expect_c}")
    if report.get("probe") is not None:
        errors += check_probe_payload(report["probe"]["at_threshold"],
                                      "at_threshold", forbid="saturating")
        errors += check_probe_payload(report["probe"]["above_threshold"],
                                      "above_threshold", forbid="diverging")
    return errors


def check_probe_payload(payload: dict, label: str, forbid: str) -> list[str]:
    errors = []
    if payload["verdict"] == forbid:
        errors.append(f"probe {label} says {forbid}")
    values = payload["values"]
    if any(b < a for a, b in zip(values, values[1:])):
        errors.append(f"probe {label} values decrease")
    return errors


def check_lp(value: Fraction, report: dict | None) -> list[str]:
    if report is None:
        return ["no analyze report to compare the LP value with"]
    c = _frac(report["c"])
    return [] if value == c else [f"LP value {value} != c = {c}"]


def check_search(text: str, genus: int, target: Fraction) -> list[str]:
    """Every hit: b = genus, min valence >= 3, bridgeless, c >= target."""
    errors = []
    lines = text.splitlines()
    if not lines:
        errors.append("search found no hits")
    for k, line in enumerate(lines):
        hit = json.loads(line)
        n, edges = _graph_of(hit["graph"])
        valence = [0] * n
        for a, b in edges:
            valence[a] += 1
            valence[b] += 1
        if components(n, edges) != 1:
            errors.append(f"hit {k}: disconnected")
        if betti(n, edges) != genus:
            errors.append(f"hit {k}: b = {betti(n, edges)} != genus {genus}")
        if min(valence) < 3:
            errors.append(f"hit {k}: a vertex has valence {min(valence)}")
        if bridge_ids(n, edges):
            errors.append(f"hit {k}: has a bridge")
        if _frac(hit["c"]) < target:
            errors.append(f"hit {k}: c = {hit['c']['fraction']} < {target}")
        if hit["psi_terms"] != tree_count(n, edges):
            errors.append(f"hit {k}: psi_terms != matrix-tree count")
    return errors
