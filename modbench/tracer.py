"""Spans and counters recorded from outside the program.

``install`` wraps the public functions of each modgraph module (and a few
private hooks, where they exist) in every module namespace that holds a
reference to them.  Each wrapper records a span -- name, start, end,
parent span, op id -- and the counters that can be read from its
arguments and return value.  Self time is a span's duration minus the
time its child spans cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []  # frames: [name, start, child_seconds, span_id, record]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.op = None
        self.absent = []
        self.tables = weakref.WeakSet()  # matroids whose rank table is counted
        self._next_id = 0

    def push(self, name: str, record: bool = True):
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id, record]
        self.stack.append(frame)
        return frame

    def pop(self, frame, count_call: bool = True) -> float:
        end = self.clock()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, span_id, record = frame
        duration = end - start
        self.self_s[name] += duration - child
        if count_call:
            self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            self.spans.append((span_id, name, start - self.origin,
                               end - self.origin,
                               parent[3] if parent else None, self.op))
        return duration

    def span_records(self):
        for span_id, name, start, end, parent, op in self.spans:
            yield {"span": span_id, "name": name, "start": round(start, 6),
                   "end": round(end, 6), "parent": parent, "op": op}

    def wrap(self, name, fn, record=True, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.push(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if post:
                post(tracer, args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, counter):
        """Time each resumption of a generator; count the items it yields."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            while True:
                frame = tracer.push(name, record=False)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.pop(frame, count_call=first)
                    return
                except BaseException:
                    tracer.pop(frame, count_call=first)
                    raise
                tracer.pop(frame, count_call=first)
                first = False
                tracer.counters[counter] += 1
                yield item

        return wrapper

    def wrap_count(self, name, fn, counter, measure):
        """Count without a span, so the caller's self time keeps the work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += measure(args)
            return fn(*args, **kwargs)

        return wrapper


def _add(counter, measure):
    def post(tracer, args, result):
        tracer.counters[counter] += measure(args, result)
    return post


def _true_count(counter):
    return _add(counter, lambda args, result: 1 if result else 0)


def _terms(args, result):
    return len(result.terms())


def _rank_table_masks(tracer, args, result):
    """Count each matroid's table once, however often it is asked for."""
    if args[0] not in tracer.tables:
        tracer.tables.add(args[0])
        tracer.counters["matroid.rank_table.masks"] += len(result)


# (module, attribute, span name, private, kind, extra)
# kind: "fn" span + optional post hook; "gen" generator
# with an item counter; "count" (counter, measure of the arguments), no span.
HOOKS = [
    ("cli", "main", "cli.main", False, "fn", None),
    ("convergence", "analyze", "convergence.analyze", False, "fn", None),
    ("convergence", "threshold", "convergence.threshold", False, "fn", None),
    ("convergence", "optimal_contraction", "convergence.optimal_contraction",
     False, "fn", None),
    ("convergence", "search_divergent", "convergence.search_divergent", False,
     "fn", _add("convergence.search.hits", lambda a, r: len(r))),
    ("convergence", "_gen_edge_lists", "convergence._gen_edge_lists", True,
     "gen", "convergence.search.candidates"),
    ("convergence", "_connected", "convergence._connected", True, "fn",
     _true_count("convergence.search.connected")),
    ("convergence", "_is_bridgeless", "convergence._is_bridgeless", True, "fn",
     _true_count("convergence.search.bridgeless")),
    ("convergence", "_series_classes", "convergence._series_classes", True,
     "fn", None),
    ("convergence", "_density_reaches", "convergence._density_reaches", True,
     "fn", _true_count("convergence.search.density_pass")),
    ("kirchhoff", "psi_det", "kirchhoff.psi_det", False, "fn",
     _add("kirchhoff.psi.terms", _terms)),
    ("kirchhoff", "psi_trees", "kirchhoff.psi_trees", False, "fn",
     _add("kirchhoff.psi.terms", _terms)),
    ("kirchhoff", "cycle_form", "kirchhoff.cycle_form", False, "fn", None),
    ("matroid", "CographicMatroid.__init__", "matroid.CographicMatroid", False,
     "fn", None),
    ("matroid", "CographicMatroid.rank_table", "matroid.rank_table", False,
     "fn", _rank_table_masks),
    ("matroid", "density", "matroid.density", False, "fn", None),
    ("matroid", "build_witness", "matroid.build_witness", False, "fn", None),
    ("matroid", "in_scaled_polytope", "matroid.in_scaled_polytope", False,
     "fn", None),
    ("matroid", "cover_lp_oracle", "matroid.cover_lp_oracle", False, "fn",
     None),
    ("simplex", "minimize", "simplex.minimize", False, "fn", None),
    ("simplex", "_pivot", "simplex._pivot", True, "count",
     ("simplex.pivots", lambda args: 1)),
    ("graphs", "parse_graph", "graphs.parse_graph", False, "fn", None),
    ("graphs", "bridges", "graphs.bridges", False, "fn", None),
    ("graphs", "spanning_trees", "graphs.spanning_trees", False, "fn",
     _add("graphs.spanning_trees.trees", lambda a, r: len(r))),
    ("graphs", "contract_edges", "graphs.contract_edges", False, "fn", None),
    ("graphs", "fundamental_cycle_basis", "graphs.fundamental_cycle_basis",
     False, "fn", None),
    ("probe", "truncated_J", "probe.truncated_J", False, "fn", None),
    ("probe", "_integrand", "probe._integrand", True, "count",
     ("probe.points", lambda args: args[2].shape[0])),
]


def install(tracer: Tracer, package: str = "modgraph"):
    """Wrap every hook, replacing each reference in every loaded module of
    the package.  Private hooks that are missing are listed in
    ``tracer.absent``; a missing public function is an error."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for mod_name, attr, name, private, kind, extra in HOOKS:
        module = sys.modules.get(f"{package}.{mod_name}")
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        fn = getattr(holder, leaf, None) if holder is not None else None
        if fn is None:
            if not private:
                raise RuntimeError(f"public function {mod_name}.{attr} is missing")
            tracer.absent.append(name)
            continue
        if kind == "gen":
            wrapped = tracer.wrap_generator(name, fn, extra)
        elif kind == "count":
            wrapped = tracer.wrap_count(name, fn, *extra)
        else:
            wrapped = tracer.wrap(name, fn, record=not private, post=extra)
        if owner:
            setattr(holder, leaf, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)


SELF_TIMES = [
    "kirchhoff.psi_det", "kirchhoff.psi_trees", "kirchhoff.cycle_form",
    "matroid.rank_table", "matroid.density", "matroid.build_witness",
    "matroid.in_scaled_polytope", "matroid.cover_lp_oracle",
    "simplex.minimize",
    "convergence.analyze", "convergence.threshold",
    "convergence.optimal_contraction", "convergence.search_divergent",
    "convergence._gen_edge_lists", "convergence._connected",
    "convergence._is_bridgeless", "convergence._series_classes",
    "convergence._density_reaches",
    "graphs.parse_graph", "graphs.bridges", "graphs.spanning_trees",
    "graphs.contract_edges", "graphs.fundamental_cycle_basis",
    "probe.truncated_J",
    "cli.main",
]
CALLS = ["kirchhoff.psi_det", "simplex.minimize", "graphs.bridges",
         "probe.truncated_J"]
COUNTERS = [
    "kirchhoff.psi.terms", "matroid.rank_table.masks", "simplex.pivots",
    "convergence.search.candidates", "convergence.search.connected",
    "convergence.search.bridgeless", "convergence.search.density_pass",
    "convergence.search.hits", "graphs.spanning_trees.trees",
    "probe.points", "cli.output_bytes",
]
# Metrics that a missing private hook leaves without a source.
NEEDS_HOOK = {
    "convergence.search.candidates": "convergence._gen_edge_lists",
    "convergence.search.yield": "convergence._gen_edge_lists",
    "convergence.search.connected": "convergence._connected",
    "convergence.search.bridgeless": "convergence._is_bridgeless",
    "convergence.search.density_pass": "convergence._density_reaches",
    "simplex.pivots": "simplex._pivot",
    "probe.points": "probe._integrand",
    "probe.points_per_s": "probe._integrand",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["cli.output_bytes"] = "bytes"
    units["matroid.CographicMatroid.builds"] = "count"
    units["convergence.search.yield"] = "ratio"
    units["probe.points_per_s"] = "1/s"
    units["trace_overhead"] = "ratio"
    units["trace_coverage"] = "ratio"
    return units


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced pass, and the names left absent."""
    values = {f"{name}.self_s": tracer.self_s.get(name, 0.0)
              for name in SELF_TIMES}
    values.update({f"{name}.calls": tracer.calls.get(name, 0) for name in CALLS})
    values.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    values["matroid.CographicMatroid.builds"] = tracer.calls.get(
        "matroid.CographicMatroid", 0)
    candidates = values["convergence.search.candidates"]
    values["convergence.search.yield"] = (
        values["convergence.search.hits"] / candidates if candidates else 0.0)
    probe_s = tracer.self_s.get("probe.truncated_J", 0.0)
    values["probe.points_per_s"] = (
        values["probe.points"] / probe_s if probe_s else 0.0)
    absent = sorted({m for m, hook in NEEDS_HOOK.items() if hook in tracer.absent}
                    | {f"{h}.self_s" for h in tracer.absent
                       if f"{h}.self_s" in values})
    return values, absent


def top_level_seconds(tracer: Tracer) -> float:
    """Seconds covered by the layer spans directly under the op spans."""
    ops = {span_id for span_id, name, *_ in tracer.spans if name == "op"}
    return sum(end - start for _, _, start, end, parent, _ in tracer.spans
               if parent in ops)
