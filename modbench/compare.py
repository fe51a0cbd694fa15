"""Compare two benchmark results files: parent against change.

    python3 modbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records ``run.py`` appends to
``.modbench/results.jsonl``.  For every workload and end-to-end metric it
prints the median and quartiles of each side, the paired win fraction
(runs paired by seed) and a verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: a side's quartile spread is wider than the bound and the
  change does not beat every parent run;
* ``within bound`` otherwise.

Per-layer metrics from traced runs follow as medians, and every op whose
output digest differs between the sides on the same seed is listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_seed(records, workload, metric, key="metrics"):
    out = defaultdict(list)
    for rec in records:
        if rec["workload"] == workload and metric in rec.get(key, {}):
            out[rec["seed"]].append(rec[key][metric])
    return out


def verdict(parent, change, pairs, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    if lower_is_better:
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if share >= WIN_SHARE and sign * (p_med - c_med) > p_q3 - p_q1:
        return wins, "gain"
    if spread > bound and not beats_all:
        return wins, "unresolved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return wins, "regression"
    return wins, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    print("workload  metric         parent med [q1, q3]            "
          "change med [q1, q3]            wins   verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_runs = by_seed(parent, workload, name)
            c_runs = by_seed(change, workload, name)
            p_vals = [v for vs in p_runs.values() for v in vs]
            c_vals = [v for vs in c_runs.values() for v in vs]
            if not p_vals or not c_vals:
                continue
            pairs = [pair for seed in p_runs.keys() & c_runs.keys()
                     for pair in zip(p_runs[seed], c_runs[seed])]
            wins, word = verdict(p_vals, c_vals, pairs, metric["bound"],
                                 metric["better"] == "lower")
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p_vals), quartiles(c_vals)
            print(f"{workload:9} {name:14} {pm:10.4f} [{pq1:.4f}, {pq3:.4f}]  "
                  f"{cm:10.4f} [{cq1:.4f}, {cq3:.4f}]  "
                  f"{wins}/{len(pairs)}  {word}")

    print("\nper-layer medians (traced runs)")
    for workload in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            p_vals = [v for vs in by_seed(parent, workload, name, "layers").values()
                      for v in vs]
            c_vals = [v for vs in by_seed(change, workload, name, "layers").values()
                      for v in vs]
            if p_vals and c_vals:
                print(f"{workload:9} {name:42} {statistics.median(p_vals):14.6g} "
                      f"{statistics.median(c_vals):14.6g} {metric['unit']}")

    print("\nop digests that differ (same workload and seed)")
    differ = 0
    for p_rec in parent:
        for c_rec in change:
            if (p_rec["workload"], p_rec["seed"]) != (c_rec["workload"],
                                                      c_rec["seed"]):
                continue
            p_ops = {op["id"]: op["digest"] for ps in p_rec["passes"]
                     for op in ps["ops"]}
            c_ops = {op["id"]: op["digest"] for ps in c_rec["passes"]
                     for op in ps["ops"]}
            for op_id in sorted(p_ops.keys() & c_ops.keys()):
                if p_ops[op_id] != c_ops[op_id]:
                    differ += 1
                    print(f"{p_rec['workload']} seed {p_rec['seed']}: {op_id}")
    if not differ:
        print("none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
