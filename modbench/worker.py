"""One pass of a workload in a fresh process.

Run by ``run.py``; not meant to be started by hand.  The worker imports
modgraph from the checkout's ``src/``, writes the workload's input files,
prints ``ready`` (the parent times set-up up to that line), then runs the
fixed op list in a closed loop, one op after another, and writes a JSON
result: per-op seconds, sha256 digest of the output and check failures,
peak RSS and, when traced, the per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_modgraph():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import modgraph
    import modgraph.cli

    if Path(modgraph.__file__).resolve().parent != src / "modgraph":
        raise RuntimeError(f"imported modgraph from {modgraph.__file__}, "
                           f"not from {src}")
    return modgraph


def _file_name(op_id: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "+-_" else "_" for ch in op_id)


class Pass:
    def __init__(self, modgraph, ops, seed, workdir: Path, tracer=None):
        self.modgraph = modgraph
        self.ops = ops
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.reports = {}
        for op in ops:
            if op.graph is not None:
                path = workdir / f"{_file_name(op.id)}.json"
                path.write_text(json.dumps(workloads.graph_json(op.graph)))

    def _cli(self, argv, out: Path) -> bytes:
        if out.exists():
            out.unlink()
        code = self.modgraph.cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"modgraph {argv[0]} exited with {code}")
        data = out.read_bytes()
        if self.tracer is not None:
            self.tracer.counters["cli.output_bytes"] += len(data)
        return data

    def _input(self, op) -> str:
        return str(self.workdir / f"{_file_name(op.id)}.json")

    def run_op(self, op) -> tuple[float, bytes, callable]:
        """Run one op; return its seconds, its output and its checker."""
        out = self.workdir / f"{_file_name(op.id)}.out"
        seed = ["--seed", str(self.seed)]
        start = time.perf_counter()
        if op.kind == "analyze":
            data = self._cli(["analyze", self._input(op), *seed, *op.args], out)
            elapsed = time.perf_counter() - start
            report = json.loads(data)
            self.reports[op.graph_name] = report
            return elapsed, data, lambda: checks.check_analyze(
                report, op.graph, op.expect_c)
        if op.kind == "search":
            data = self._cli(["search", *op.args], out)
            elapsed = time.perf_counter() - start
            return elapsed, data, lambda: checks.check_search(
                data.decode(), op.genus, op.target)
        if op.kind == "probe":
            data = self._cli(["probe", self._input(op), *seed, *op.args], out)
            elapsed = time.perf_counter() - start
            payload = json.loads(data)
            return elapsed, data, lambda: checks.check_probe_payload(
                payload, "at s = c", forbid="saturating")
        if op.kind == "lp":
            report = self.reports.get(op.graph_name)
            if report is None:
                raise RuntimeError("the analyze op before this LP failed")
            core = report["core"]["graph"]
            graph = self.modgraph.Multigraph(
                tuple((v["id"], v["genus"]) for v in core["vertices"]),
                tuple(tuple(e) for e in core["edges"]))
            start = time.perf_counter()
            value = self.modgraph.cover_lp_oracle(graph)
            elapsed = time.perf_counter() - start
            return elapsed, str(value).encode(), lambda: checks.check_lp(
                Fraction(value), report)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def run(self) -> list[dict]:
        results = []
        for op in self.ops:
            try:
                seconds, data, check = self._traced(op)
            except (Exception, SystemExit) as exc:  # counted, not fatal
                traceback.print_exc(file=sys.stderr)
                seconds, data = None, None
                errors = [f"raised {type(exc).__name__}: {exc}"]
            else:
                try:
                    errors = check()
                except (KeyError, TypeError, ValueError) as exc:
                    errors = [f"output check could not read the output: {exc!r}"]
            results.append({
                "id": op.id,
                "seconds": seconds,
                "digest": None if data is None else hashlib.sha256(data).hexdigest(),
                "seed_free": op.seed_free,
                "errors": errors,
            })
        return results

    def _traced(self, op):
        if self.tracer is None:
            return self.run_op(op)
        self.tracer.op = op.id
        frame = self.tracer.push("op")
        try:
            return self.run_op(op)
        finally:
            self.tracer.pop(frame)
            self.tracer.op = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modgraph = import_modgraph()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.ops_for(args.workload, args.seed)
    run = Pass(modgraph, ops, args.seed, args.workdir, tracer)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    ops_out = run.run()
    result = {
        "ops": ops_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        values, absent = tracing.layer_metrics(tracer)
        result["layers"] = values
        result["absent"] = absent
        result["spans"] = list(tracer.span_records())
        result["coverage"] = tracing.top_level_seconds(tracer) / sum(
            op["seconds"] or 0.0 for op in ops_out)
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
