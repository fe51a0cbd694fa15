"""The modgraph benchmark: one workload, one seed, one result line.

    python3 modbench/run.py --workload certify|search|probe
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; modgraph is imported from its ``src/``.
Each pass of the workload's fixed op list runs in a fresh worker process
(single-threaded, BLAS/OpenMP threads pinned to 1), ops one after another
in a closed loop.  Passes repeat while another one still fits in
``--seconds`` (at least one runs).  Every op's output is checked
independently and its sha256 digest is compared with
``reference_digests.json`` -- for every op on the default seed, for the
seed-free ops on any seed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over passes); with ``--trace 1`` one more, traced pass follows
and the line reports the per-layer metrics instead.  Each run appends a
full record (environment, passes, per-op digests and failures) to
``.modbench/results.jsonl``; a traced run also writes its spans to
``.modbench/spans-<workload>-seed<N>.jsonl``.  ``compare.py`` reads two
results files.  ``--update-reference`` rewrites the workload's reference
digests from a clean run on the default seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".modbench"
REFERENCE = HERE / "reference_digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
WORKER_TIMEOUT = 170.0
MIN_COVERAGE = 0.9
END_TO_END_UNITS = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload, seed, trace, setup_only, tag) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its result."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}-{tag}"
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        if line != b"ready\n":
            raise WorkerFailed(f"worker never became ready (got {line!r})")
        code = proc.wait(timeout=WORKER_TIMEOUT)
        if code != 0:
            raise WorkerFailed(f"worker exited with {code}")
        result = None if setup_only else json.loads(result_path.read_text())
        return setup, result
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker ran longer than {WORKER_TIMEOUT} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def op_failures(ops, result, reference, digest_scope) -> list[str]:
    """Failure messages of one pass, one per failed op, each naming the op.

    digest_scope: "all" compares every op's digest with the reference,
    "seed_free" only the ops whose output does not depend on the seed,
    "none" none (while the reference is being rewritten).
    """
    by_id = {op["id"]: op for op in result["ops"]} if result else {}
    failures = []
    for op in ops:
        got = by_id.get(op.id)
        if got is None:
            failures.append(f"{op.id}: no result (worker failed)")
            continue
        errors = list(got["errors"])
        if got["digest"] is not None and (
                digest_scope == "all" or digest_scope == "seed_free" and op.seed_free):
            want = reference.get(op.id)
            if want is None:
                errors.append("no reference digest")
            elif want != got["digest"]:
                errors.append(f"digest {got['digest'][:12]} != reference "
                              f"{want[:12]}")
        if errors:
            failures.append(f"{op.id}: " + "; ".join(errors))
    return failures


def pass_summary(result) -> dict:
    seconds = [op["seconds"] for op in result["ops"] if op["seconds"] is not None]
    return {"wall_s": sum(seconds), "max_op_s": max(seconds, default=0.0),
            "peak_rss_mb": result["peak_rss_mb"]}


def environment(args, passes: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _read_lines(path):
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError:
        return []


def _git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="modgraph benchmark",
        epilog="The last stdout line is the result JSON.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modgraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no modgraph sources under {ROOT / 'src'}\n")
        return 2
    if args.update_reference and args.seed != workloads.DEFAULT_SEED:
        sys.stderr.write("error: reference digests come from the default seed\n")
        return 2
    OUT.mkdir(exist_ok=True)
    ops = workloads.ops_for(args.workload, args.seed)
    references = load_reference()
    reference = references.get(args.workload, {})
    if args.update_reference:
        digest_scope = "none"
    elif args.seed == workloads.DEFAULT_SEED:
        digest_scope = "all"
    else:
        digest_scope = "seed_free"

    setups = []
    for k in range(SETUP_PROBES):
        try:
            setups.append(run_worker(args.workload, args.seed, 0, True, f"s{k}")[0])
        except WorkerFailed as exc:
            sys.stderr.write(f"error: set-up probe failed: {exc}\n")
            return 2

    passes = []
    failures = []  # one per failed op, naming it
    problems = []  # failures of the run that are not ops
    attempted = 0

    def one_pass(trace, tag):
        nonlocal attempted
        attempted += len(ops)
        try:
            setup, result = run_worker(args.workload, args.seed, trace, False, tag)
        except WorkerFailed as exc:
            sys.stderr.write(f"pass {tag} failed: {exc}\n")
            setup, result = None, None
        failed = op_failures(ops, result, reference, digest_scope)
        failures.extend(f"pass {tag}: {f}" for f in failed)
        return setup, result, failed

    start = time.perf_counter()
    while True:
        setup, result, failed = one_pass(0, f"p{len(passes)}")
        if setup is not None:
            setups.append(setup)
        passes.append({"setup_s": setup, "failed": len(failed),
                       **(pass_summary(result) if result else {}),
                       "ops": result["ops"] if result else []})
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    timed = [p for p in passes if "wall_s" in p]
    metrics = {}
    if timed:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "max_op_s": statistics.median(p["max_op_s"] for p in timed),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in timed),
            "setup_s": statistics.median(setups),
        }

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(args, len(passes)), "setup_samples": setups,
              "passes": passes, "metrics": metrics}
    out_metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in metrics}
    if args.trace:
        _, traced, failed = one_pass(1, "traced")
        if traced is not None and timed:
            summary = pass_summary(traced)
            layers = dict(traced["layers"])
            layers["trace_overhead"] = summary["wall_s"] / metrics["wall_s"]
            layers["trace_coverage"] = traced["coverage"]
            if traced["coverage"] < MIN_COVERAGE:
                problems.append(f"traced pass: top-level spans cover only "
                                f"{traced['coverage']:.1%} of wall_s")
            units = layer_metric_units()
            out_metrics = {name: {"value": layers[name], "unit": unit}
                           for name, unit in units.items()}
            record.update(traced_pass=summary, layers=layers,
                          absent=traced["absent"])
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.write_text("".join(json.dumps(s) + "\n" for s in traced["spans"]))
        else:
            out_metrics = {}
            problems.append("traced pass: no per-layer metrics")

    failed_count = len(failures)
    record.update(attempted=attempted, failed=failed_count,
                  error_rate=failed_count / attempted,
                  failures=failures + problems)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in failures + problems:
        sys.stderr.write(f"FAILED {line}\n")
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
                     f"{failed_count}/{attempted} ops failed\n")

    if args.update_reference:
        if failures or problems or not timed:
            sys.stderr.write("error: reference digests not updated; the run "
                             "had failures\n")
            return 2
        references[args.workload] = {op["id"]: op["digest"]
                                     for op in timed[0]["ops"]}
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True)
                             + "\n")

    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted,
                      "failed": failed_count, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
