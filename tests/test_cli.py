import hashlib
import json
import os
import stat
import subprocess
import sys
import time

import pytest

import modgraph
from modgraph.cli import main
from modgraph.matroid import CertificateError

P3_TEXT = "0 1\n1 2\n2 0\n"
LOOP_JSON = '{"edges": [[0, 0]]}\n'
TREE_TEXT = "0 1\n1 2\n"
BAD_TEXT = "0 1\n2 3\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("p3.txt", P3_TEXT),
        ("loop.json", LOOP_JSON),
        ("tree.txt", TREE_TEXT),
        ("bad.txt", BAD_TEXT),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestAnalyze:
    def test_single_json(self, files, capsys):
        assert main(["analyze", files["p3.txt"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c"]["fraction"] == "3"
        assert report["schema"] == "1"

    def test_pentagon_c5(self, tmp_path, capsys):
        from modgraph import make_ngon

        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps(make_ngon(5).to_json_dict()))
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["c"]["fraction"] == "5"

    def test_tree_variant_exit_zero(self, files, capsys):
        assert main(["analyze", files["tree.txt"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variant"] == "no_cycles"

    def test_disconnected_exit_one(self, files, capsys):
        assert main(["analyze", files["bad.txt"]]) == 1
        err = capsys.readouterr().err
        assert "disconnected" in err and "bad.txt" in err

    def test_multiple_inputs_json_lines(self, files, capsys):
        assert main(["analyze", files["p3.txt"], files["loop.json"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(x) for x in lines)
        assert first["input"].endswith("p3.txt")
        assert second["c"]["fraction"] == "1"

    def test_csv_format(self, files, capsys):
        assert main(["analyze", files["p3.txt"], "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("input,vertices,edges")
        assert out[1].split(",")[7] == "3"  # c column

    def test_csv_rows_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        # the doubled hexagon with a pendant bridge: its 9-edge core
        # contracts its 6 doubled sides; then a tree's no_cycles row
        from modgraph import make_doubled_2ngon

        edges = make_doubled_2ngon(3).edges + ((0, 6),)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hexagon.txt").write_text(
            "".join(f"{a} {b}\n" for a, b in edges))
        (tmp_path / "tree.txt").write_text(TREE_TEXT)
        assert main(["analyze", "hexagon.txt", "tree.txt",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "input,vertices,edges,betti,genus,stable,variant,c,c_decimal,"
            "core_edges,core_betti,contracted_edges,psi_terms\n"
            "hexagon.txt,7,10,4,4,false,threshold,3,3.000000,9,4,6,36\n"
            "tree.txt,3,2,0,0,false,no_cycles,,,0,0,0,0\n"
        )

    def test_csv_with_probe_exits_1_before_analysis(self, files, capsys,
                                                    monkeypatch):
        import modgraph.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("analysis ran before the flag check")

        monkeypatch.setattr(cli, "analyze", unreachable)
        assert main(["analyze", files["p3.txt"], "--format", "csv",
                     "--probe"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--probe" in err

    def test_max_edges_guard(self, files, capsys):
        assert main(["analyze", files["p3.txt"], "--max-edges", "2"]) == 1

    def test_core_over_cap_exits_1_before_kirchhoff(self, tmp_path, capsys,
                                                    monkeypatch):
        import modgraph.convergence as convergence
        from modgraph import make_doubled_2ngon

        def unreachable(g):
            raise AssertionError("Kirchhoff routes ran on an oversize core")

        monkeypatch.setattr(convergence, "psi_from_graph", unreachable)
        path = tmp_path / "d14.json"  # bridgeless, 21 edges
        path.write_text(json.dumps(make_doubled_2ngon(7).to_json_dict()))
        assert main(["analyze", str(path), "--max-edges", "21"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "21 edges" in err

    def test_separable_core_over_cap_exits_1_before_kirchhoff(
            self, tmp_path, capsys, monkeypatch):
        # the cap core plus two loops at vertex 0: 21 edges in blocks of
        # 18, 1, 1 and 1, each under the cap; the cap holds on the core
        import modgraph.convergence as convergence
        from modgraph import MatroidError, Multigraph, analyze
        from modgraph.selftest import cap_core_graph

        def unreachable(g):
            raise AssertionError("Kirchhoff routes ran on an oversize core")

        monkeypatch.setattr(convergence, "psi_from_graph", unreachable)
        core = cap_core_graph()
        g = Multigraph(core.vertices, core.edges + ((0, 0),) * 2)
        message = ("ground set has 21 edges; exhaustive scans are capped at "
                   "20 (contract the graph first)")
        with pytest.raises(MatroidError) as caught:
            analyze(g)
        assert str(caught.value) == message
        path = tmp_path / "cap21.json"
        path.write_text(json.dumps(g.to_json_dict()))
        assert main(["analyze", str(path), "--max-edges", "21"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    def test_byte_identical_reruns(self, files, capsys):
        main(["analyze", files["p3.txt"], "--probe"])
        first = capsys.readouterr().out
        main(["analyze", files["p3.txt"], "--probe"])
        assert capsys.readouterr().out == first

    def test_out_file_written_atomically(self, files, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["analyze", files["p3.txt"], "--out", str(target)]) == 0
        assert json.loads(target.read_text())["c"]["fraction"] == "3"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".modgraph-")]
        assert leftovers == []


class TestProbe:
    def test_loop_diverging(self, files, capsys):
        assert main(["probe", files["loop.json"], "--s", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "diverging"

    def test_seed_env_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("MODGRAPH_SEED", "12345")
        main(["probe", files["loop.json"], "--s", "1.5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 12345

    def test_bridge_input_rejected(self, files, capsys):
        assert main(["probe", files["tree.txt"], "--s", "1.0"]) == 1

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0", "-3"])
    def test_bad_s_rejected(self, files, capsys, s):
        assert main(["probe", files["loop.json"], f"--s={s}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: s must be a positive finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,env,message", [
        pytest.param(["analyze", "p3.txt", "--probe", "--seed", "-1"], None,
                     "--seed must be a non-negative integer, got -1",
                     id="analyze-flag-negative"),
        pytest.param(["analyze", "p3.txt", "--probe"], "-5",
                     "MODGRAPH_SEED must be a non-negative integer, got -5",
                     id="analyze-env-negative"),
        pytest.param(["analyze", "p3.txt", "--probe"], "abc",
                     "MODGRAPH_SEED must be an integer, got 'abc'",
                     id="analyze-env-text"),
        pytest.param(["analyze", "p3.txt"], "abc",
                     "MODGRAPH_SEED must be an integer, got 'abc'",
                     id="analyze-no-probe-env-text"),
        pytest.param(["probe", "p3.txt", "--s", "3", "--seed", "-1"], None,
                     "--seed must be a non-negative integer, got -1",
                     id="probe-flag-negative"),
        pytest.param(["probe", "p3.txt", "--s", "3"], "-5",
                     "MODGRAPH_SEED must be a non-negative integer, got -5",
                     id="probe-env-negative"),
        pytest.param(["probe", "p3.txt", "--s", "3"], "abc",
                     "MODGRAPH_SEED must be an integer, got 'abc'",
                     id="probe-env-text"),
    ])
    def test_bad_seed_rejected(self, files, capsys, monkeypatch, argv, env, message):
        if env is None:
            monkeypatch.delenv("MODGRAPH_SEED", raising=False)
        else:
            monkeypatch.setenv("MODGRAPH_SEED", env)

        def no_work(*args, **kwargs):
            raise AssertionError("the seed is checked before any analysis")

        monkeypatch.setattr("modgraph.cli.analyze", no_work)
        monkeypatch.setattr("modgraph.cli.truncated_J", no_work)
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["analyze", "p3.txt", "--probe", "--seed", "1.5"],
                     "argument --seed: invalid int value: '1.5'", id="analyze-seed"),
        pytest.param(["probe", "p3.txt", "--s", "3", "--seed", "abc"],
                     "argument --seed: invalid int value: 'abc'", id="probe-seed"),
        pytest.param(["probe", "p3.txt", "--s", "3", "--format", "xml"],
                     "argument --format: invalid choice: 'xml'", id="probe-format"),
        pytest.param(["analyze", "p3.txt", "--max-edges", "0"],
                     "argument --max-edges: must be at least 1, got 0",
                     id="analyze-max-edges-zero"),
        pytest.param(["analyze", "p3.txt", "--max-edges", "-5"],
                     "argument --max-edges: must be at least 1, got -5",
                     id="analyze-max-edges-negative"),
        pytest.param(["analyze", "p3.txt", "--max-edges", "2.5"],
                     "argument --max-edges: invalid int value: '2.5'",
                     id="analyze-max-edges-float"),
    ])
    def test_bad_flag_exits_one(self, files, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([files.get(a, a) for a in argv])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_huge_samples_rejected(self, files, capsys):
        start = time.monotonic()
        argv = ["probe", files["p3.txt"], "--s", "3", "--samples", "1000000000000"]
        assert main(argv) == 1
        assert time.monotonic() - start < 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: samples must be at most 10000000, got 1000000000000\n"

    def test_samples_with_quadrature_rejected(self, files, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the flags are checked before any probe")

        monkeypatch.setattr("modgraph.cli.truncated_J", no_work)
        argv = ["probe", files["p3.txt"], "--s", "3", "--method",
                "tensor_quadrature", "--samples", "100000"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --samples sets the Monte Carlo sample count; "
                       "tensor_quadrature does not take it\n")

    def test_frozen_quadrature_stdout(self, tmp_path, capsys):
        # the benchmark's probe:banana4 op, the 4-edge banana at its
        # threshold 4/3, with its digest in modbench/reference_digests.json
        path = tmp_path / "banana4.json"
        path.write_text(json.dumps({"edges": [[0, 1]] * 4}))
        assert main(["probe", str(path), "--seed", "1", "--method",
                     "tensor_quadrature", "--s", repr(4 / 3)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "78a23b75482a85bd149d7eb476efd85dd89085ac1729692ef07a5f2edfe5b831")

    def test_edgeless_graph_rejected(self, tmp_path, capsys):
        path = tmp_path / "vertex.json"
        path.write_text('{"vertices": [{"id": 0}], "edges": []}\n')
        assert main(["probe", str(path), "--s", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: probe needs at least one edge\n"

    @pytest.mark.parametrize("s", ["200", "1e308"])
    def test_underflowing_s_rejected(self, files, capsys, s):
        assert main(["probe", files["p3.txt"], "--s", s]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the increments of F underflow to 0.0")
        assert err.count("\n") == 1

    def test_overflowing_grid_rejected(self, files, capsys):
        assert main(["probe", files["p3.txt"], "--s", "0.5",
                     "--grid", "10", "100", "1e300"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: F, its standard error or a ratio is "
                              "not finite at s = 0.5")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_grid_rejected(self, files, capsys, radius):
        assert main(["probe", files["loop.json"], "--s", "1.5",
                     "--grid", "10", "100", radius]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: every grid radius must be a finite number\n"

    def test_csv_rows(self, files, capsys):
        assert main(["probe", files["loop.json"], "--s", "1.0",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "R,F,stderr"
        assert len(lines) == 5  # header + one row per grid radius


class TestGraphInput:
    @pytest.mark.parametrize("graph, message", [
        ({"vertices": [{"id": 0, "genus": 1.5}], "edges": [[0, 0]]},
         "non-integer genus"),
        ({"vertices": [{"id": 0, "genus": True}], "edges": [[0, 0]]},
         "non-integer genus"),
        ({"edges": [[True, False]]}, "non-integer endpoints"),
        ({"vertices": [{"id": "a"}], "edges": [[0, 0]]}, "not an integer"),
    ], ids=["genus-float", "genus-bool", "edge-bool", "id-string"])
    def test_bad_json_rejected(self, tmp_path, capsys, graph, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        assert main(["analyze", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("content, message", [
        (b'{"vertices": 5, "edges": [[0, 1], [1, 0]]}',
         "'vertices' must be an array"),
        (b"\xff\xfe\x00", "not UTF-8 text"),
        (b'{"edges": ' + b"[" * 200_000, "nested too deeply"),
    ], ids=["vertices-int", "not-utf8", "deep-nesting"])
    @pytest.mark.parametrize("command", [["analyze"], ["probe", "--s", "1.5"]],
                             ids=["analyze", "probe"])
    def test_malformed_file_exits_one(self, tmp_path, capsys, content,
                                      message, command):
        path = tmp_path / "graph.json"
        path.write_bytes(content)
        assert main([command[0], str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ") and message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestSearch:
    def test_theta_hit(self, capsys):
        code = main(["search", "--genus", "2", "--max-edges", "3",
                     "--target", "3/2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(json.loads(x)["c"]["fraction"] == "3/2" for x in lines)

    def test_no_hits_exit_3(self, capsys):
        assert main(["search", "--genus", "2", "--max-edges", "3",
                     "--target", "2"]) == 3
        assert capsys.readouterr().out == ""

    def test_bad_target(self, capsys):
        assert main(["search", "--genus", "2", "--max-edges", "3",
                     "--target", "x"]) == 1

    def test_guard_violation(self, capsys):
        assert main(["search", "--genus", "2", "--max-edges", "99",
                     "--target", "1"]) == 1

    @pytest.mark.parametrize("genus, max_edges, target, lines, digest", [
        ("4", "9", "2", 169,
         "735668bb6a2dc049add0f527a825d495e10b903f8c779c220fbfca84ad5cad5f"),
        ("3", "7", "1", 14,
         "3bd3d88976d6bcfee12a656f75d83dc3f0b0e7a46de57fe2bcd8367022be406a"),
        ("6", "11", "5", 7,
         "78dc73c6f180ecb07ab0277e56e34ae912a8fb8c63c6e82a22dae3e87a73f66d"),
        ("5", "13", "3", 506,
         "890855cc952948fb00c07b0cc2ce0ab4fd57ad4b606bcc726f69a188cf5fc422"),
        ("7", "13", "6", 8,
         "2ad672d83c1b6fe085dcdd95d7583717902509360c296a4f69012d199e462ea2"),
    ], ids=["g4e9t2", "g3e7t1", "g6e11t5", "g5e13t3", "g7e13t6"])
    def test_frozen_stdout(self, capsys, genus, max_edges, target, lines,
                           digest):
        # g4e9t2 and g3e7t1 were recorded before the generator pruned bridged
        # prefixes; g6e11t5 and g5e13t3 are the benchmark's search ops, with
        # the digests of modbench/reference_digests.json; g7e13t6 was
        # recorded before the generator pruned prefixes that cannot grow a
        # series class of `target` edges, which it needs to run in seconds
        assert main(["search", "--genus", genus, "--max-edges", max_edges,
                     "--target", target]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOutputFile:
    @pytest.mark.parametrize("argv", [
        ["analyze", "{p3}"],
        ["probe", "{loop}", "--s", "1.5"],
        ["search", "--genus", "2", "--max-edges", "3", "--target", "3/2"],
        ["families", "--ngon", "3"],
    ], ids=["analyze", "probe", "search", "families"])
    def test_missing_directory_exit_one(self, files, tmp_path, capsys, argv):
        argv = [a.format(p3=files["p3.txt"], loop=files["loop.json"])
                for a in argv]
        target = tmp_path / "missing" / "out.json"
        assert main(argv + ["--out", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {target}: No such file or directory\n"
        assert not (tmp_path / "missing").exists()

    def test_special_file_not_replaced(self, files, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        assert main(["analyze", files["p3.txt"], "--out", str(fifo)]) == 1
        assert capsys.readouterr().err == f"error: {fifo}: not a regular file\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestModuleEntryPoint:
    def test_python_m_modgraph(self):
        src = os.path.dirname(os.path.dirname(modgraph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "modgraph", "families", "--ngon", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["edges"]) == 3


class TestOneProcess:
    @staticmethod
    def run_python(code):
        src = os.path.dirname(os.path.dirname(modgraph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_repeated_main_calls_match_fresh_runs(self, files):
        # the parser is built once per process and shared by every call
        calls = [["analyze", "--probe", files["p3.txt"]],
                 ["analyze", files["p3.txt"]]]
        script = ("from modgraph.cli import main\n"
                  "for argv in {!r}:\n"
                  "    assert main(argv) == 0\n")
        both = self.run_python(script.format(calls))
        fresh = "".join(self.run_python(script.format([argv])) for argv in calls)
        assert both == fresh
        first, end = json.JSONDecoder().raw_decode(both)
        assert first["probe"] and json.loads(both[end:])["probe"] is None

    def test_cli_import_leaves_selftest_unloaded(self):
        out = self.run_python(
            "import sys, modgraph.cli; print('modgraph.selftest' in sys.modules)")
        assert out == "False\n"


class TestFailureSignals:
    def test_certificate_violation_exits_2(self, files, monkeypatch):
        import modgraph.cli as cli

        def boom(*a, **k):
            raise CertificateError("seeded fault")

        monkeypatch.setattr(cli, "analyze", boom)
        assert main(["analyze", files["p3.txt"]]) == 2

    @pytest.mark.parametrize("command, argv", [
        ("search_divergent", ["search", "--genus", "2", "--max-edges", "4",
                              "--target", "1"]),
        ("make_ngon", ["families", "--ngon", "3"]),
    ])
    @pytest.mark.parametrize("exc", [
        RuntimeError("seeded\nfault"), CertificateError("density recheck"),
    ])
    def test_internal_failure_exits_2(self, monkeypatch, capsys, command,
                                      argv, exc):
        import modgraph.cli as cli

        def boom(*a, **k):
            raise exc

        monkeypatch.setattr(cli, command, boom)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: internal failure")
        assert type(exc).__name__ in err
        assert "Traceback" not in err

    def test_selftest_seeded_fault_nonzero(self, monkeypatch, capsys):
        import modgraph.selftest as st
        import dataclasses

        broken = tuple(
            dataclasses.replace(c, run=lambda: (False, "seeded fault"))
            if c.number == 2 else c
            for c in st.CRITERIA
            if c.quick
        )
        monkeypatch.setattr(st, "CRITERIA", broken)
        assert st.run_selftest(quick=True) == 2
        assert "FAIL" in capsys.readouterr().out


class TestFamilies:
    def test_ngon(self, capsys):
        assert main(["families", "--ngon", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["edges"]) == 5

    def test_doubled(self, capsys):
        assert main(["families", "--doubled", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["edges"]) == 15

    def test_doubled_zero_exit_one(self, capsys):
        assert main(["families", "--doubled", "0"]) == 1

    @pytest.mark.parametrize("argv", [["--ngon", "20"], ["--doubled", "6"]])
    def test_at_edge_cap(self, capsys, argv):
        assert main(["families", *argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["edges"]) <= 20

    @pytest.mark.parametrize("argv", [["--ngon", "21"], ["--doubled", "7"],
                                      ["--ngon", "100000000"]])
    def test_over_edge_cap_exit_one(self, capsys, argv):
        start = time.perf_counter()
        assert main(["families", *argv]) == 1
        assert time.perf_counter() - start < 5.0  # rejected before building
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the family graph would have")
        assert err.count("\n") == 1

    def test_roundtrips_through_analyze(self, tmp_path, capsys):
        main(["families", "--doubled", "3"])
        graph_json = capsys.readouterr().out
        path = tmp_path / "doubled6.json"
        path.write_text(graph_json)
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["c"]["fraction"] == "3"
