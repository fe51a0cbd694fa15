"""The benchmark's tracer finds every public function it wraps.

`modbench/tracer.py` raises when a public hook is missing, so a change
that drops or renames a hooked name fails here, not only in the bench.
The tracer patches module namespaces, so it runs in a subprocess.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import modgraph
from modgraph import cycle_form, fundamental_cycle_basis, psi_det, psi_trees
from modgraph.selftest import k4_graph

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import modgraph.cli
import tracer
t = tracer.Tracer()
tracer.install(t)
print(json.dumps(t.absent))
"""


def test_tracer_installs_every_hook():
    src = os.path.dirname(os.path.dirname(modgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "modbench")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "convergence._connected", "convergence._series_classes",
        "convergence._density_reaches",
    ]


ANALYZE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import modgraph.cli
from modgraph.selftest import cap_core_graph
import tracer
t = tracer.Tracer()
tracer.install(t)
modgraph.convergence.analyze(cap_core_graph())
names = ("matroid.build_witness", "matroid.density")
print(json.dumps([[t.calls[name], t.self_s[name]] for name in names]))
"""


def test_tracer_sees_the_certificate_scans():
    # analyze reaches the scans through the public density and
    # build_witness, so the hooks on them time the certificate
    src = os.path.dirname(os.path.dirname(modgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", ANALYZE, str(ROOT / "modbench")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (witness_calls, witness_s), (density_calls, _) = json.loads(proc.stdout)
    assert witness_calls >= 1 and density_calls >= 1
    assert witness_s > 0


def test_tracer_counts_kirchhoff_terms():
    # the tracer's kirchhoff.psi.terms counter reads the polynomial's terms()
    spec = importlib.util.spec_from_file_location(
        "modbench_tracer", ROOT / "modbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    g = k4_graph()
    det = psi_det(cycle_form(g, fundamental_cycle_basis(g)))
    assert tracer._terms((), det) == tracer._terms((), psi_trees(g)) == 16


POINTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import modgraph.cli
from modgraph.probe import ProbeConfig, truncated_J
from modgraph.selftest import k4_graph
import tracer
t = tracer.Tracer()
tracer.install(t)
truncated_J(k4_graph(), ProbeConfig(s=2.5))
print(json.dumps(t.counters["probe.points"]))
"""


def test_tracer_counts_probe_points():
    # the probe.points counter reads the point count off the integrand's
    # third argument, so a change to its arguments shows here
    src = os.path.dirname(os.path.dirname(modgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", POINTS, str(ROOT / "modbench")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == 388_557
