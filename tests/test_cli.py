"""Command dispatch, serialization round-trips, determinism, exit codes."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tokenize
import tracemalloc
from pathlib import Path

import pytest

import ditopo
from conftest import eager_cli_parser
from ditopo import cli
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


SUBMODULES = ("certify", "cli", "core", "errors", "graph", "nathom", "product", "pv", "record",
              "sphere", "walk")


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


def test_sphere_reach_loads_neither_core_nor_graph():
    modules = _main_loads("sphere", "reach", "-n", "2", "--from", "0,0.5,0", "--to", "1,0.6,0.3")
    assert "ditopo.sphere" in modules
    assert not {"ditopo.core", "ditopo.graph", "ditopo.certify"} & modules


@pytest.mark.parametrize("argv", [
    ("graph", "ditc", "@"),
    ("graph", "gamma", "@", "--from", "e:top:0.3", "--to", "v:e"),
    ("graph", "plan", "@", "--from", "v:b", "--to", "e:top:0.5"),
    ("torus", "plan", "--n", "2", "--from", "0.1,0.2", "--to", "0.1,0.9"),
    ("nathom", "build", "@", "--samples", "v:b,v:e"),
])
def test_requests_that_certify_nothing_load_no_certifier(circle_file, argv):
    modules = _main_loads(*(circle_file if a == "@" else a for a in argv))
    assert "ditopo.core" in modules
    assert "ditopo.certify" not in modules


def test_check_section_loads_the_certifiers(circle_file):
    assert "ditopo.certify" in _main_loads("check", "section", circle_file, "--samples", "5")


def test_moved_names_resolve_in_their_old_modules():
    """``core`` and the graph classes compile the testers on first use only,
    and then hold the very functions ``certify`` defines."""
    found = _probe(
        "import sys, random\nimport ditopo.core as core, ditopo.graph as graph\n"
        "print('LOADED', 'ditopo.certify' in sys.modules)\n"
        "check = core.check_section\nimport ditopo.certify as certify\n"
        "print('CORE', *sorted(n for n in core._CERTIFY if getattr(core, n) is getattr(certify, n)"
        " and n in vars(core)))\n"
        "g = graph.directed_circle()\no = graph.gamma(g)\nx, y = o.sample_pair(random.Random(1))\n"
        "g.distance(x, y)\n"
        "print('CLASS', *sorted(f'{c.__name__}.{n}' for c in (graph.DirectedGraph, graph.GammaOracle)"
        " for n, f in vars(c).items() if getattr(f, '__module__', '') == 'ditopo.certify'))\n")
    assert found["LOADED"] == {"False"}
    assert found["CORE"] == set(ditopo.core._CERTIFY)
    assert found["CLASS"] == {"DirectedGraph.distance", "GammaOracle.sample_pair"}


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


# ---------------------------------------------------------------------------
# The parser builds only the chosen command's subtree
# ---------------------------------------------------------------------------

TREE = {"graph": ("ditc", "plan", "gamma"), "torus": ("plan",), "pv": ("schedule", "regions"),
        "sphere": ("reach",), "nathom": ("build", "point-check"),
        "check": ("section", "continuity")}
HELP_ARGV = [["--help"], ["-h"]] + [[c, "--help"] for c in TREE] + [
    [c, s, "--help"] for c, subs in TREE.items() for s in subs]
USAGE_ERRORS = [[], ["nosuch"], ["--seed", "x", "graph", "ditc", "f"], ["--seed"],
                ["--seed", "1.5", "sphere"]] + [[c] for c in TREE] + [
    [c, "nosuch"] for c in TREE] + [[c, s] for c, subs in TREE.items() for s in subs]


def _captured(call) -> tuple:
    """(exit code, stdout, stderr) of a parse or a ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", HELP_ARGV + USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_the_eager_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _captured(lambda: main(argv))
    want = _captured(lambda: eager_cli_parser().parse_args(argv))
    assert got == (want[0] or 0, *want[1:])
    assert got[1 if argv in HELP_ARGV else 2]


@pytest.mark.parametrize("argv", [
    ["graph", "plan", "g.json", "--from", "v:b", "--to", "v:e"],
    ["--seed", "7", "check", "continuity", "g.json", "--patch", "rest", "--eps", "0.5"],
    ["torus", "plan", "--n", "3", "--from", "0,0,0", "--to", "0.5,0.5,0.5"],
    ["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2", "--svg", "x.svg"],
    ["sphere", "reach", "-n", "1", "--from", "0,0.5", "--to", "1,0.6", "--grid", "32"],
    ["nathom", "build", "g.json", "--samples", "v:b", "--dot", "--degree", "2"],
])
def test_parsed_arguments_match_the_eager_parser(argv):
    assert cli._build_parser().parse_args(argv) == eager_cli_parser().parse_args(argv)


def test_only_the_chosen_command_gets_subparsers():
    parser = cli._build_parser()
    parser.parse_args(["pv", "regions", "Pa.Va|Pa.Va"])
    commands = parser._subparsers._group_actions[0].choices
    assert [name for name, p in commands.items() if p._subparsers] == ["pv"]


# ---------------------------------------------------------------------------
# Caps checked before any work
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["check", "section", "@", "--samples", str(cli._MAX_DRAWS + 1)],
    ["check", "continuity", "@", "--patch", "rest", "--pairs", str(cli._MAX_DRAWS + 1)],
    # (2 * 4096 + 1)^2 grid nodes, just over 2^26
    ["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2", "--resolution", "4096"],
    ["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2", "--resolution", "100000"],
])
def test_caps_refuse_before_any_work(capsys, monkeypatch, circle_file, argv):
    import ditopo.certify  # noqa: F401 - modules load before tracemalloc starts
    import ditopo.pv

    def no_work(*args, **kwargs):
        raise AssertionError("the request ran past its cap")
    monkeypatch.setattr(ditopo.graph, "build_planner", no_work)
    monkeypatch.setattr(ditopo.pv, "schedule", no_work)
    argv = [circle_file if a == "@" else a for a in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "at most" in captured.err or "grid nodes" in captured.err
    assert peak < 256 * 1024


def test_resolution_just_under_the_grid_cap_runs(monkeypatch):
    import ditopo.pv
    calls = []
    monkeypatch.setattr(ditopo.pv, "schedule", lambda *args: calls.append(args) or 1 / 0)
    with pytest.raises(ZeroDivisionError):  # the stub ran: the cap let it through
        main(["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2",
              "--resolution", "4095"])
    assert (2 * 4095 + 1) ** 2 <= cli._MAX_GRID_NODES < (2 * 4096 + 1) ** 2
    assert calls[0][3] == 4095


# ---------------------------------------------------------------------------
# Module size
# ---------------------------------------------------------------------------

def parser_tokens(path: Path) -> int:
    """The tokens CPython's parser reads from a module: ``tokenize`` less
    comments, blank-line NL tokens and the encoding marker."""
    with open(path, "rb") as fh:
        skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in skip)


def test_every_module_stays_under_the_parser_doubling():
    """CPython 3.11's parser doubles its token array past 8 192 tokens as
    counted here: ``graph.py`` padded to 8 192 tokens compiles with a
    tracemalloc peak of 2.85 MB, padded to 8 194 with 3.30 MB.  Every
    process compiles the modules it imports when no bytecode cache is
    written."""
    sources = sorted(Path(ditopo.__file__).parent.glob("*.py"))
    counts = {p.name: parser_tokens(p) for p in sources}
    assert {"core.py", "graph.py", "certify.py"} <= set(counts)
    assert max(counts.values()) < 8192, counts
