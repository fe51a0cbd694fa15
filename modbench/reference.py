"""One-shot reference timings, outside the gated workloads.

    python3 modbench/reference.py

Runs each of these once and prints its seconds as one JSON line:

* ``psi_det`` on K6 (15 edges, b = 10);
* ``modgraph analyze`` on the doubled 12-gon (18 edges) and on the doubled
  12-gon plus 2 loops (20 edges, the cap);
* ``modgraph search --genus 6 --max-edges 15 --target 5``.

These are too slow to repeat in every benchmark run; the determinant and
cycle-matrix work items state their done-criteria against them.  Takes
several minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import import_modgraph


def main() -> int:
    modgraph = import_modgraph()
    times = {}
    out = Path(__file__).resolve().parent.parent / ".modbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        tmp = Path(tmp)
        n, edges = workloads.complete(6)
        k6 = modgraph.Multigraph(tuple((i, 0) for i in range(n)), tuple(edges))
        form = modgraph.cycle_form(k6, modgraph.fundamental_cycle_basis(k6))
        start = time.perf_counter()
        modgraph.psi_det(form)
        times["psi_det:K6"] = time.perf_counter() - start

        for name, graph in (("D6", workloads.doubled_2ngon(6)),
                            ("D6+2loops", workloads.doubled_2ngon_loops(6, 2))):
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(workloads.graph_json(graph)))
            start = time.perf_counter()
            code = modgraph.cli.main(["analyze", str(path),
                                      "--out", str(tmp / "out.json")])
            times[f"analyze:{name}"] = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"analyze {name} exited with {code}")

        start = time.perf_counter()
        code = modgraph.cli.main(["search", "--genus", "6", "--max-edges", "15",
                                  "--target", "5", "--out", str(tmp / "hits")])
        times["search:g6e15t5"] = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"search exited with {code}")
    print(json.dumps({"seconds": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
