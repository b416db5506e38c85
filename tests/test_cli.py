"""Command dispatch, serialization round-trips, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditopo
from ditopo.cli import main
from ditopo.graph import DirectedGraph, directed_circle, directed_interval


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(directed_circle().to_json()))
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(directed_interval().to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGraphCommands:
    def test_ditc_report(self, capsys, circle_file):
        code, out = run(capsys, "graph", "ditc", circle_file)
        assert code == 0
        assert json.loads(out) == {
            "exact": True, "lower": 2, "reason": "FiniteConflictTwoPatch", "upper": 2}

    def test_plan_emits_path_json(self, capsys, circle_file):
        code, out = run(capsys, "graph", "plan", circle_file,
                        "--from", "v:b", "--to", "e:top:0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["path"]["steps"] == [{"edge": "top", "from": 0.0, "to": 0.5}]

    def test_gamma_membership(self, capsys, circle_file):
        code, out = run(capsys, "graph", "gamma", circle_file,
                        "--from", "e:top:0.3", "--to", "e:bot:0.5")
        assert code == 0
        assert json.loads(out) == {"member": False}

    def test_plan_unreachable_is_a_domain_error(self, capsys, circle_file):
        code, out = run(capsys, "graph", "plan", circle_file,
                        "--from", "e:top:0.3", "--to", "e:bot:0.5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "Unreachable"

    def test_graph_round_trip(self, circle_file):
        doc = json.loads(open(circle_file).read())
        assert DirectedGraph.from_json(doc).to_json() == doc


class TestTorusCommand:
    def test_plan_patch_and_paths(self, capsys):
        code, out = run(capsys, "torus", "plan", "--n", "2",
                        "--from", "0.1,0.2", "--to", "0.1,0.9")
        assert code == 0
        doc = json.loads(out)
        assert doc["patch"] == "G1"
        assert len(doc["paths"]) == 2
        assert doc["ditc"]["upper"] == 3


class TestPvCommands:
    def test_schedule(self, capsys):
        code, out = run(capsys, "pv", "schedule", "Pa.Va.Pb.Vb|Pa.Va.Pb.Vb",
                        "--from", "0,0", "--to", "4,4")
        assert code == 0
        doc = json.loads(out)
        assert doc["path"][0] == [0.0, 0.0]
        assert doc["path"][-1] == [4.0, 4.0]
        assert len(doc["interleaving"]) == 8

    def test_regions_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, out = run(capsys, "pv", "regions", "Pa.Va|Pa.Va", "--svg", str(svg))
        assert code == 0
        assert json.loads(out)["rectangles"] == [
            {"semaphore": "a", "x": [1, 2], "y": [1, 2]}]
        assert svg.read_text().startswith("<svg")

    def test_unreachable_is_a_domain_error(self, capsys):
        code, out = run(capsys, "pv", "schedule", "Pa.Pb.Va.Vb|Pb.Pa.Vb.Va",
                        "--from", "2,2", "--to", "4,4")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "Unreachable"


class TestSphereCommand:
    def test_reach(self, capsys):
        code, out = run(capsys, "sphere", "reach", "-n", "1",
                        "--from", "0,0.5", "--to", "1,0.6")
        assert code == 0
        assert json.loads(out) == {"member": False}


class TestNathomCommands:
    def test_build_and_point_check(self, capsys, circle_file, interval_file):
        code, out = run(capsys, "nathom", "build", circle_file,
                        "--samples", "v:b,v:e")
        assert code == 0
        doc = json.loads(out)
        assert {o["rank"] for o in doc["objects"]} == {1, 2}
        code, out = run(capsys, "nathom", "point-check", interval_file,
                        "--samples", "v:0,v:1")
        assert code == 0
        assert json.loads(out)["bisimilar_to_point"] is True

    def test_dot_export(self, capsys, circle_file):
        code, out = run(capsys, "nathom", "build", circle_file,
                        "--samples", "v:b,v:e", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_infinite_trace_space_is_domain_error(self, capsys, tmp_path):
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps(
            {"vertices": ["v"], "edges": [{"id": "l", "src": "v", "dst": "v"}]}))
        code, out = run(capsys, "nathom", "build", str(loop), "--samples", "v:v")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InfiniteTraceSpace"


class TestCheckCommands:
    def test_section_report(self, capsys, circle_file):
        code, out = run(capsys, "check", "section", circle_file, "--samples", "200")
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_continuity_report(self, capsys, circle_file):
        code, out = run(capsys, "check", "continuity", circle_file,
                        "--patch", "rest", "--pairs", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_ratio"] <= doc["lipschitz_bound"] + 1e-6


class TestContract:
    def test_identical_argv_identical_bytes(self, capsys, circle_file):
        _, first = run(capsys, "check", "section", circle_file, "--samples", "100")
        _, second = run(capsys, "check", "section", circle_file, "--samples", "100")
        assert first == second

    def test_usage_error_exits_one(self, capsys, circle_file):
        assert main(["graph", "nonsense", circle_file]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["graph", "ditc", "/nonexistent/g.json"]) == 1


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter, so that modules this test session loaded do not count
    env = dict(os.environ, PYTHONPATH=str(Path(ditopo.__file__).resolve().parents[1]))
    probe = ("import sys; before = set(sys.modules); import ditopo.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names) - {'ditopo'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
