"""Acceptance criteria as importable checks.

Each criterion is a function returning (passed, detail).  The CLI selftest
runs them and prints a table; the pytest acceptance module asserts them one
by one.  Budgets are wall-clock seconds; a criterion that exceeds its
budget fails even if the math checks out.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .convergence import (
    _gen_edge_lists,
    analyze,
    make_doubled_2ngon,
    make_ngon,
    optimal_contraction,
    search_divergent,
    threshold,
)
from .graphs import (
    Multigraph,
    _forest,
    betti,
    bridges,
    contract_edges,
    fundamental_cycle_basis,
    genus,
    is_stable,
    spanning_trees,
)
from .kirchhoff import cycle_form, inverse_decay_check, psi_det, psi_trees
from .matroid import (
    CographicMatroid,
    build_witness,
    cover_lp_oracle,
    density,
    in_scaled_polytope,
)
from .probe import ProbeConfig, truncated_J

THETA = (((0, 0), (1, 0)), ((0, 1), (0, 1), (0, 1)))
K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
DOUBLE_TRIANGLE = ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))
BRIDGED_TRIANGLES = ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3))
# bridgeless, 20 edges, v = 11, b = 10, 10,122 spanning trees
DENSE_CORE = ((0, 1), (0, 2), (2, 3), (2, 4), (1, 5), (5, 6), (3, 7), (4, 8),
              (8, 9), (3, 10), (10, 7), (5, 6), (8, 9), (3, 4), (8, 5), (8, 1),
              (3, 7), (10, 2), (8, 3), (6, 0))


def theta_graph() -> Multigraph:
    return Multigraph(*THETA)


def k4_graph() -> Multigraph:
    return Multigraph(tuple((i, 0) for i in range(4)), K4_EDGES)


def double_triangle_graph() -> Multigraph:
    return Multigraph(tuple((i, 0) for i in range(5)), DOUBLE_TRIANGLE)


def bridged_triangles_graph() -> Multigraph:
    return Multigraph(tuple((i, 0) for i in range(6)), BRIDGED_TRIANGLES)


def dense_core_graph() -> Multigraph:
    return Multigraph(tuple((i, 0) for i in range(11)), DENSE_CORE)


def cap_core_graph() -> Multigraph:
    """K4 with every edge a 3-path, plus a loop at vertex 0: 19 edges,
    16 vertices, c = 6; the core of the 20-edge cap graph, which adds one
    pendant bridge."""
    edges, v = [], 4
    for a, b in K4_EDGES:
        edges += [(a, v), (v, v + 1), (v + 1, b)]
        v += 2
    return Multigraph(tuple((i, 0) for i in range(v)), (*edges, (0, 0)))


def small_connected_multigraphs(max_edges: int):
    """Every connected multigraph with at most max_edges edges, at least one
    labelled representative per isomorphism class (canonical edge-list
    generation)."""
    yield Multigraph(((0, 0),), ())
    for e in range(1, max_edges + 1):
        for v in range(1, e + 2):
            for ends, _ in _gen_edge_lists(v, e, min_valence=0):
                yield Multigraph(tuple((i, 0) for i in range(v)), ends)


def random_connected_multigraph(rng: random.Random, max_vertices: int,
                                max_edges: int) -> Multigraph:
    """Rejection-sample a connected multigraph (loops and parallels allowed)."""
    while True:
        v = rng.randint(1, max_vertices)
        lo = max(1, v - 1)
        if lo > max_edges:
            continue
        e = rng.randint(lo, max_edges)
        ends = tuple(
            (rng.randrange(v), rng.randrange(v)) for _ in range(e)
        )
        if not any(_forest(v, ends)[2]):
            return Multigraph(tuple((i, 0) for i in range(v)), ends)


def random_bridgeless_multigraph(rng: random.Random, max_vertices: int,
                                 max_edges: int, max_trees: int) -> Multigraph:
    while True:
        g = random_connected_multigraph(rng, max_vertices, max_edges)
        if betti(g) == 0 or bridges(g):
            continue
        if len(spanning_trees(g)) > max_trees:
            continue
        return g


def corpus_graphs(rng_seed: int = 9418) -> list[tuple[str, Multigraph]]:
    """The fixed certificate corpus: named families plus 10 seeded random
    bridgeless graphs with <= 8 edges and <= 200 spanning trees."""
    out = [(f"P_{n}", make_ngon(n)) for n in range(2, 6)]
    out.append(("theta", theta_graph()))
    out.append(("K4", k4_graph()))
    out.append(("doubled_square", make_doubled_2ngon(2)))
    out.append(("double_triangle", double_triangle_graph()))
    rng = random.Random(rng_seed)
    for i in range(10):
        out.append((f"random_{i}", random_bridgeless_multigraph(rng, 6, 8, 200)))
    return out


# ---------------------------------------------------------------------------
# Criteria


def criterion_1_kirchhoff_identity() -> tuple[bool, str]:
    """Determinant route equals tree route exactly: exhaustively on every
    connected multigraph with <= 5 edges, on 200 seeded random connected
    multigraphs with <= 9 edges, and on a dense 20-edge core."""
    count = 0
    for g in small_connected_multigraphs(5):
        det, tree = psi_det(cycle_form(g, fundamental_cycle_basis(g))), psi_trees(g)
        if det != tree:
            return False, f"mismatch on exhaustive graph {g.edges}"
        count += 1
    rng = random.Random(271828)
    for _ in range(200):
        g = random_connected_multigraph(rng, 8, 9)
        det = psi_det(cycle_form(g, fundamental_cycle_basis(g)))
        if det != psi_trees(g):
            return False, f"mismatch on random graph {g.edges}"
    g = dense_core_graph()
    if psi_det(cycle_form(g, fundamental_cycle_basis(g))) != psi_trees(g):
        return False, "mismatch on the dense 20-edge core"
    return True, (f"{count} exhaustive graphs (<=5 edges) + 200 random "
                  "(<=9 edges) + a dense 20-edge core (b = 10)")


def criterion_2_ngon_thresholds() -> tuple[bool, str]:
    """threshold(P_n) = n exactly for n = 2..6 with valid certificates."""
    for n in range(2, 7):
        g = make_ngon(n)
        c, cert = threshold(g)
        if c != Fraction(n):
            return False, f"c(P_{n}) = {c} != {n}"
        matroid = CographicMatroid(g)
        if len(cert.t0) != matroid.corank(cert.t0) * c:
            return False, f"P_{n}: T0 does not attain m"
        if any(x < 1 for x in cert.witness):
            return False, f"P_{n}: witness below 1"
        if not in_scaled_polytope(matroid, cert.witness, c):
            return False, f"P_{n}: witness outside m*P(M)"
    return True, "c(P_n) = n with T0 and witness certificates, n = 2..6"


def criterion_3_doubled_family() -> tuple[bool, str]:
    """Doubled 2n-gon: c = n, e = 3n, b = n+1, genus = n+1, stable, for
    n = 2..5; the n = 5 report states divergence at s = 5."""
    for n in range(2, 6):
        g = make_doubled_2ngon(n)
        c, _ = threshold(g)
        checks = (
            c == Fraction(n),
            g.n_edges == 3 * n,
            betti(g) == n + 1,
            genus(g) == n + 1,
            is_stable(g),
        )
        if not all(checks):
            return False, (
                f"n={n}: c={c} e={g.n_edges} b={betti(g)} genus={genus(g)} "
                f"stable={is_stable(g)}"
            )
    report = analyze(make_doubled_2ngon(5)).to_json_dict()
    if report["convergence"]["diverges_at"] != "5":
        return False, f"n=5 report diverges_at = {report['convergence']['diverges_at']}"
    return True, "c = n, e = 3n, b = genus = n+1, stable, n = 2..5; divergence at 5"


def criterion_4_lp_agreement() -> tuple[bool, str]:
    """Covering-LP value equals the density m exactly on the corpus, on K6
    (1,296 spanning trees), on the doubled 12-gon (18 edges), on the 19-edge
    cap core (c = 6) and on the 20-edge dense core (c = 2, 10,122 spanning
    trees).  The LP prices columns by Kruskal and lists no spanning trees,
    so these run past the old 500-tree guard inside the budget."""
    k6 = Multigraph(tuple((i, 0) for i in range(6)),
                    tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
    graphs = corpus_graphs() + [("K6", k6),
                                ("doubled_12gon", make_doubled_2ngon(6)),
                                ("cap_core", cap_core_graph()),
                                ("dense_core", dense_core_graph())]
    for name, g in graphs:
        m = density(CographicMatroid(g)).m
        lp = cover_lp_oracle(g)
        if m != lp:
            return False, f"{name}: density {m} != LP {lp}"
    return True, ("cover LP = density m on the corpus, K6, the doubled "
                  "12-gon and the cap and dense cores")


def criterion_5_witness_certificates() -> tuple[bool, str]:
    """Witness vectors live in m*P(M) with every coordinate >= 1: those of
    `build_witness` and of `threshold`, both split over the blocks, on the
    corpus and the cap and dense cores, each checked against the whole
    graph's polytope."""
    graphs = corpus_graphs() + [("cap_core", cap_core_graph()),
                                ("dense_core", dense_core_graph())]
    for name, g in graphs:
        whole = CographicMatroid(g)
        for cert in (build_witness(CographicMatroid(g)), threshold(g)[1]):
            if any(x < 1 for x in cert.witness):
                return False, f"{name}: witness coordinate below 1"
            if not in_scaled_polytope(whole, cert.witness, cert.m):
                return False, f"{name}: witness outside m*P(M)"
    return True, ("build_witness and threshold witnesses valid on the "
                  "corpus and the cap and dense cores, each checked on the "
                  "whole graph's polytope")


def criterion_6_optimal_contraction() -> tuple[bool, str]:
    """Contractions preserve c and land on optimal graphs; the doubled
    2n-gon collapses to the n-cycle for n = 3..5 (n = 2 is already
    optimal, so the contraction is the identity there)."""
    for name, g in corpus_graphs():
        c = density(CographicMatroid(g)).m
        _, gbar = optimal_contraction(g)
        cbar = density(CographicMatroid(gbar)).m
        if cbar != c or cbar != Fraction(gbar.n_edges, betti(gbar)):
            return False, f"{name}: contraction broke optimality"
    for n in range(3, 6):
        _, gbar = optimal_contraction(make_doubled_2ngon(n))
        if (gbar.n_vertices, gbar.n_edges, betti(gbar)) != (n, n, 1):
            return False, (
                f"doubled {2*n}-gon contracted to v={gbar.n_vertices} "
                f"e={gbar.n_edges} b={betti(gbar)}, expected the {n}-cycle"
            )
    s2, gbar2 = optimal_contraction(make_doubled_2ngon(2))
    if s2 or Fraction(gbar2.n_edges, betti(gbar2)) != 2:
        return False, "doubled square should already be optimal (T0 = E)"
    return True, "c preserved and optimal on corpus; doubled 2n-gon -> n-cycle"


def criterion_7_lower_bound() -> tuple[bool, str]:
    """c >= e'/b' on the bridgeless core; equality exactly on P_n, theta, K4."""
    for name, g in corpus_graphs():
        c = density(CographicMatroid(g)).m
        bound = Fraction(g.n_edges, betti(g))
        if c < bound:
            return False, f"{name}: c = {c} below e/b = {bound}"
    for name, g in [("P_3", make_ngon(3)), ("P_6", make_ngon(6)),
                    ("theta", theta_graph()), ("K4", k4_graph())]:
        c = density(CographicMatroid(g)).m
        if c != Fraction(g.n_edges, betti(g)):
            return False, f"{name}: expected equality c = e/b, got {c}"
    return True, "c >= e/b everywhere; equality on P_n, theta, K4"


def criterion_8_bridge_invariance() -> tuple[bool, str]:
    """Two triangles joined by a bridge: c = 3, equal to the contracted graph."""
    g = bridged_triangles_graph()
    c, _ = threshold(g)
    core, _ = contract_edges(g, bridges(g))
    c_core = density(CographicMatroid(core)).m
    if c != 3 or c_core != 3:
        return False, f"c = {c}, core c = {c_core}, expected 3"
    return True, "bridge contraction leaves c = 3"


# per graph: the exponents, probed on one set of points, and their verdicts
PROBE_CASES = (
    ("single_loop", (((0, 0),), ((0, 0),)), ((1.0, "diverging"), (1.5, "saturating"))),
    ("P_3", None, ((3.0, "diverging"), (3.5, "saturating"))),
    ("theta", THETA, ((1.5, "diverging"), (2.0, "saturating"))),
)


def criterion_9_probe_verdicts() -> tuple[bool, str]:
    """Growth verdicts around the threshold with the default seed and grid;
    the probes of each graph must finish inside 60 seconds and land on the
    right side."""
    details = []
    for name, raw, cases in PROBE_CASES:
        g = make_ngon(3) if raw is None else Multigraph(*raw)
        exponents = tuple(s for s, _ in cases)
        start = time.perf_counter()
        verdicts = truncated_J(g, ProbeConfig(s=exponents[0]), s_values=exponents)
        elapsed = time.perf_counter() - start
        if elapsed > 60:
            return False, f"{name} s={exponents}: probe took {elapsed:.1f}s (> 60s)"
        for (s, expected), verdict in zip(cases, verdicts):
            if verdict.verdict != expected:
                return False, (
                    f"{name} s={s}: verdict {verdict.verdict} != {expected} "
                    f"(ratios {verdict.ratios})"
                )
            details.append(f"{name}@{s}={verdict.verdict}")
    return True, "; ".join(details)


def criterion_10_inverse_decay() -> tuple[bool, str]:
    """Max inverse entry at t*(1,...,1) scales as 1/t within 1e-9 relative,
    for theta and K4, across t in {1, 10, 100, 1000}."""
    grid = [1.0, 10.0, 100.0, 1000.0]
    for name, g in [("theta", theta_graph()), ("K4", k4_graph())]:
        form = cycle_form(g, fundamental_cycle_basis(g))
        vals = inverse_decay_check(form, (1.0,) * g.n_edges, grid)
        base = vals[0]
        for t, v in zip(grid, vals):
            if abs(v * t - base) > 1e-9 * base:
                return False, f"{name}: {v} at t={t} breaks 1/t scaling"
        if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
            return False, f"{name}: inverse entries fail to decay"
    return True, "exact 1/t scaling within 1e-9 on theta and K4"


def criterion_11_search_witness() -> tuple[bool, str]:
    """search(genus 6, <= 15 edges, target 5) finds a witness with c = 5."""
    hits = search_divergent(6, 15, Fraction(5))
    if not hits:
        return False, "no genus-6 witness found with c >= 5"
    best = hits[0]
    if best[1] != 5:
        return False, f"best hit has c = {best[1]} != 5"
    return True, f"{len(hits)} witnesses, best c = {best[1]} (e = {best[0].n_edges})"


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    run: callable
    budget: float  # seconds
    quick: bool  # included in --quick runs


CRITERIA = (
    Criterion(1, "Kirchhoff identity (det route = tree route)",
              criterion_1_kirchhoff_identity, 30.0, True),
    Criterion(2, "n-gon thresholds c(P_n) = n", criterion_2_ngon_thresholds,
              5.0, True),
    Criterion(3, "doubled 2n-gon family", criterion_3_doubled_family, 60.0, True),
    Criterion(4, "covering LP agrees with density", criterion_4_lp_agreement,
              60.0, True),
    Criterion(5, "polytope witness certificates", criterion_5_witness_certificates,
              60.0, True),
    Criterion(6, "optimal contraction", criterion_6_optimal_contraction, 60.0, True),
    Criterion(7, "lower bound c >= e/b", criterion_7_lower_bound, 60.0, True),
    Criterion(8, "bridge invariance", criterion_8_bridge_invariance, 30.0, True),
    Criterion(9, "probe verdicts at and above the threshold",
              criterion_9_probe_verdicts, 600.0, False),
    Criterion(10, "inverse decay 1/t scaling", criterion_10_inverse_decay,
              30.0, True),
    Criterion(11, "genus-6 divergence witness search",
              criterion_11_search_witness, 60.0, False),
)


def run_selftest(quick: bool = False, out=print) -> int:
    """Run the acceptance criteria; returns 0 when all pass, 2 otherwise."""
    failures = 0
    for crit in CRITERIA:
        if quick and not crit.quick:
            out(f"criterion {crit.number:2d}: SKIP  {crit.title} (quick mode)")
            continue
        start = time.perf_counter()
        try:
            ok, detail = crit.run()
        except Exception as exc:  # surfaced loudly, still a failure
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - start
        if ok and elapsed > crit.budget:
            ok = False
            detail = f"over budget: {elapsed:.1f}s > {crit.budget:.0f}s ({detail})"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        out(f"criterion {crit.number:2d}: {status}  {crit.title} "
            f"[{elapsed:.2f}s] {detail}")
    return 0 if failures == 0 else 2
