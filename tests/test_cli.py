"""Command dispatch, serialization round-trips, determinism, exit codes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditopo
from ditopo.cli import main
from ditopo.graph import DirectedGraph, cycle_graph, directed_circle, directed_interval


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

    @pytest.mark.parametrize("src", ["v:zzz", "e:zzz:0.5"])
    def test_plan_on_a_cycle_with_an_unknown_point_is_a_domain_error(self, capsys, tmp_path,
                                                                     src):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(cycle_graph(2).to_json()))
        code, out = run(capsys, "graph", "plan", str(path), "--from", src, "--to", "v:v0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidPoint"

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

    @pytest.mark.parametrize("point", ["abc", "0.1,x", "0.1"])
    def test_bad_point_is_a_domain_error(self, capsys, point):
        code, out = run(capsys, "torus", "plan", "--n", "2", "--from", point, "--to", "0.1,0.9")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidPoint"


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


SUBMODULES = ("cli", "core", "errors", "graph", "nathom", "product", "pv", "record", "sphere")


def _probe(statements: str) -> dict:
    """Run the statements in a fresh interpreter, so that modules this test
    session loaded do not count.  Returns each stdout line that starts with
    an upper-case tag, as tag -> set of the line's other words."""
    env = dict(os.environ, PYTHONPATH=str(Path(ditopo.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", statements], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return {line.split()[0]: set(line.split()[1:]) for line in out.stdout.splitlines()
            if line.split() and line.split()[0].isupper()}


def _loaded_after(statements: str) -> set:
    """The modules a fresh interpreter has loaded after the statements."""
    return _probe(statements + "\nimport sys\nprint('MODULES', *sorted(sys.modules))")["MODULES"]


def _main_loads(*argv) -> set:
    return _loaded_after(f"from ditopo.cli import main\nmain({list(argv)!r})")


def test_cli_imports_only_the_standard_library():
    found = _probe(
        "import sys\nbefore = set(sys.modules)\nimport ditopo\n"
        + "".join(f"import ditopo.{m}\n" for m in SUBMODULES)
        + "print('FOREIGN', *sorted({m.split('.')[0] for m in set(sys.modules) - before}"
          " - set(sys.stdlib_module_names) - {'ditopo'}))\n"
        "print('MODULES', *sorted(sys.modules))")
    assert found["FOREIGN"] == set()
    assert {f"ditopo.{m}" for m in SUBMODULES} <= found["MODULES"]
    assert "dataclasses" not in found["MODULES"]


def test_importing_the_package_loads_no_submodule():
    modules = _loaded_after("import ditopo")
    assert "ditopo" in modules
    assert not {m for m in modules if m.startswith("ditopo.")}
    assert "dataclasses" not in modules


def test_graph_ditc_loads_only_the_graph_modules(circle_file):
    modules = _main_loads("graph", "ditc", circle_file)
    assert {"ditopo.core", "ditopo.graph"} <= modules
    assert not {f"ditopo.{m}" for m in ("pv", "sphere", "nathom", "product")} & modules
    assert "dataclasses" not in modules


def test_pv_schedule_loads_neither_core_nor_graph():
    modules = _main_loads("pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2")
    assert "ditopo.pv" in modules
    assert not {"ditopo.core", "ditopo.graph"} & modules
    assert "dataclasses" not in modules


def test_exports_resolve_to_the_defining_modules():
    namespace: dict = {}
    exec("from ditopo import *", namespace)
    for name in ditopo.__all__:
        module = importlib.import_module(f"ditopo.{ditopo._EXPORTS[name]}")
        assert namespace[name] is getattr(ditopo, name) is getattr(module, name)
    assert set(ditopo.__all__) <= set(dir(ditopo))
    assert not set(SUBMODULES) & set(namespace)
    with pytest.raises(AttributeError):
        ditopo.no_such_name


class TestBadInput:
    """Inputs refused at the CLI boundary: exit 1, one message, no traceback."""

    @pytest.fixture
    def bad_graphs(self, tmp_path):
        paths = {}
        for name, doc in {
            "no_edges": {"vertices": ["a"]},
            "unknown_vertex": {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "z"}]},
            "not_an_object": [1, 2],
            "mixed_ids": {"vertices": ["a", "b"], "edges": [
                {"id": 1, "src": "a", "dst": "b"}, {"id": "x", "src": "b", "dst": "a"}]},
        }.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        return paths

    @pytest.mark.parametrize("argv, message", [
        (["torus", "plan", "--n", "0", "--from", "0", "--to", "0"], "positive integer"),
        (["sphere", "reach", "-n", "1", "--from", "0,0.5", "--to", "1,0.6", "--grid", "7"],
         "multiple of 16"),
        (["check", "section", "@circle", "--samples", "-5"], "positive integer"),
        (["check", "continuity", "@circle", "--patch", "rest", "--pairs", "0"],
         "positive integer"),
        (["check", "continuity", "@circle", "--patch", "rest", "--eps", "-1"],
         "positive number"),
        (["nathom", "build", "@circle", "--samples", "v:b", "--degree", "0"],
         "positive integer"),
        (["graph", "ditc", "@no_edges"], "KeyError: 'edges'"),
        (["graph", "plan", "@unknown_vertex", "--from", "v:a", "--to", "v:a"],
         "unknown vertices"),
        (["check", "section", "@not_an_object"], "is not a ditopo graph"),
        (["graph", "ditc", "@mixed_ids"], "TypeError: '<' not supported"),
        (["nathom", "build", "@circle", "--samples", "v:b,e:top:abc"], "bad --samples point"),
        (["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2", "--resolution", "0"],
         "positive integer"),
        (["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0,0", "--to", "2,2"],
         "two finite numbers"),
        (["pv", "schedule", "Pa.Va|Pa.Va", "--from", "nan,0", "--to", "2,2"],
         "two finite numbers"),
    ])
    def test_exits_one_with_a_message(self, capsys, circle_file, bad_graphs, argv, message):
        files = {"circle": circle_file, **{k: str(v) for k, v in bad_graphs.items()}}
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert message in captured.err.splitlines()[-1]

    def test_grid_defaults_to_16(self, capsys):
        argv = ["sphere", "reach", "-n", "2", "--from", "0,0.5,0", "--to", "1,0.6,0.3"]
        default, *explicit = (run(capsys, *argv, *extra)
                              for extra in ((), ("--grid", "16"), ("--grid", "32")))
        assert default[0] == 0
        assert explicit == [default, default]
