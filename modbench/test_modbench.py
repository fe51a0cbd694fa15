"""Tests of the benchmark's own checks.

    PYTHONPATH=src python -m pytest -q modbench
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

modgraph = pytest.importorskip("modgraph")


def _multigraph(graph):
    n, edges = graph
    return modgraph.Multigraph(tuple((i, 0) for i in range(n)), tuple(edges))


def _report(graph):
    return json.loads(json.dumps(modgraph.analyze(_multigraph(graph)).to_json_dict()))


@pytest.mark.parametrize("graph,trees", [(workloads.complete(4), 16),
                                         (workloads.complete(5), 125)])
def test_matrix_tree_count(graph, trees):
    assert checks.tree_count(*graph) == trees
    assert len(modgraph.spanning_trees(_multigraph(graph))) == trees


def test_matrix_tree_count_ignores_loops_and_counts_parallel_edges():
    assert checks.tree_count(2, [(0, 1)] * 4 + [(0, 0)]) == 4
    assert checks.tree_count(*workloads.cap_graph()) == 16 * 27


def test_clean_analyze_report_passes():
    assert checks.check_analyze(_report(workloads.complete(4)),
                                workloads.complete(4), Fraction(2)) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["psi"].update(terms=r["psi"]["terms"] + 1),
    lambda r: r["psi"].update(routes_agree=False),
    lambda r: r["c"].update(fraction="7/4"),
    lambda r: r["optimal_contraction"]["graph"]["edges"].pop(),
    lambda r: r["bridges"].append(0),
])
def test_corrupted_analyze_report_is_flagged(corrupt):
    report = _report(workloads.complete(4))
    corrupt(report)
    assert checks.check_analyze(report, workloads.complete(4), Fraction(2))


def test_wrong_closed_form_is_flagged():
    report = _report(workloads.doubled_2ngon(2))
    assert checks.check_analyze(report, workloads.doubled_2ngon(2), Fraction(3))


def test_lp_value_must_equal_c():
    report = _report(workloads.complete(4))
    assert checks.check_lp(Fraction(2), report) == []
    assert checks.check_lp(Fraction(5, 2), report)


def test_search_hit_with_bridge_or_low_valence_is_flagged():
    good = {"graph": workloads.graph_json(workloads.theta()), "c": {"fraction": "3/2"},
            "psi_terms": 3}
    assert checks.check_search(json.dumps(good), 2, Fraction(3, 2)) == []
    bridged = copy.deepcopy(good)
    bridged["graph"] = workloads.graph_json((3, [(0, 1)] * 3 + [(1, 2)]))
    assert checks.check_search(json.dumps(bridged), 2, Fraction(3, 2))
    assert checks.check_search(json.dumps(good), 2, Fraction(2))
    assert checks.check_search("", 2, Fraction(1))


def test_probe_verdict_and_monotonicity_are_checked():
    payload = {"verdict": "diverging", "values": [1.0, 2.0, 3.0]}
    assert checks.check_probe_payload(payload, "s=c", forbid="saturating") == []
    assert checks.check_probe_payload(payload, "s=c+1/2", forbid="diverging")
    payload["values"] = [1.0, 0.5, 3.0]
    assert checks.check_probe_payload(payload, "s=c", forbid="saturating")


def test_digest_mismatch_fails_the_op():
    ops = workloads.search_ops(workloads.DEFAULT_SEED)
    result = {"ops": [{"id": op.id, "digest": "a" * 64, "errors": []}
                      for op in ops]}
    reference = {op.id: "a" * 64 for op in ops}
    assert run.op_failures(ops, result, reference, "all") == []
    reference[ops[0].id] = "b" * 64
    failed = run.op_failures(ops, result, reference, "seed_free")
    assert len(failed) == 1 and failed[0].startswith(ops[0].id)
    assert run.op_failures(ops, None, reference, "none") == [
        f"{op.id}: no result (worker failed)" for op in ops]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.layer_metric_units()


def test_reference_digests_cover_every_op_of_the_default_seed():
    reference = json.loads(run.REFERENCE.read_text())
    for workload in workloads.WORKLOADS:
        ids = {op.id for op in workloads.ops_for(workload, workloads.DEFAULT_SEED)}
        assert ids == set(reference[workload])


def test_tracer_self_time_excludes_child_spans():
    ticks = iter(range(100))
    t = tracer.Tracer()
    t.clock = lambda: float(next(ticks))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: inner())
    outer()  # outer 0..3, inner 1..2
    assert t.self_s["outer"] == 2.0 and t.self_s["inner"] == 1.0
    assert t.calls == {"outer": 1, "inner": 1}
    gen = t.wrap_generator("gen", lambda: iter("ab"), "items")
    assert list(gen()) == ["a", "b"]
    assert t.calls["gen"] == 1 and t.counters["items"] == 2
    t.absent.append("simplex._pivot")
    values, absent = tracer.layer_metrics(t)
    assert absent == ["simplex.pivots"] and values["simplex.pivots"] == 0
