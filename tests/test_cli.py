import json
import os

import pytest

from modgraph.cli import main

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

    def test_max_edges_guard(self, files, capsys):
        assert main(["analyze", files["p3.txt"], "--max-edges", "2"]) == 1

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


class TestFailureSignals:
    def test_certificate_violation_exits_2(self, files, monkeypatch):
        from modgraph.matroid import CertificateError
        import modgraph.cli as cli

        def boom(*a, **k):
            raise CertificateError("seeded fault")

        monkeypatch.setattr(cli, "analyze", boom)
        assert main(["analyze", files["p3.txt"]]) == 2

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

    def test_roundtrips_through_analyze(self, tmp_path, capsys):
        main(["families", "--doubled", "3"])
        graph_json = capsys.readouterr().out
        path = tmp_path / "doubled6.json"
        path.write_text(graph_json)
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["c"]["fraction"] == "3"
