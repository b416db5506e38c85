"""Tests of the benchmark's own checkers, input generation and tracer.

Each checker must reject a planted bad output and accept a good one; the
closed-form sphere relation must agree with a brute-force lattice search.
Run with ``python3 -m pytest perfbench``.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import checkers as ck
import gen

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

CIRCLE = gen.CIRCLE
CHAIN = {"vertices": ["a", "b", "c"],
         "edges": [{"id": "x", "src": "a", "dst": "b"}, {"id": "y", "src": "b", "dst": "c"}]}


# -- graph reachability and planned paths -----------------------------------

def test_arc_reach_rejects_a_wrong_membership_answer():
    reach = ck.ArcReach(CHAIN)
    pairs = [("v:a", "e:y:0.5"), ("e:y:0.75", "e:y:0.25"), ("e:x:0.25", "e:x:0.5")]
    assert ck.check_memberships(reach, pairs, [True, False, True]) == []
    assert ck.check_memberships(reach, pairs, [True, True, True])


def test_path_checker_accepts_a_good_path():
    path = {"steps": [{"edge": "x", "from": 0.5, "to": 1.0},
                      {"edge": "y", "from": 0.0, "to": 0.25}]}
    assert ck.check_path_json(CHAIN, path, "e:x:0.5", "e:y:0.25") == []


@pytest.mark.parametrize("steps, x, y", [
    # a gap: the second step starts mid-edge, not where the first ended
    ([("x", 0.5, 1.0), ("y", 0.5, 0.75)], "e:x:0.5", "e:y:0.75"),
    # a backward step
    ([("x", 0.75, 0.25)], "e:x:0.75", "e:x:0.25"),
    # wrong end point
    ([("x", 0.0, 1.0)], "v:a", "v:c"),
    # steps that are not incident
    ([("y", 0.0, 1.0), ("x", 0.0, 1.0)], "v:b", "v:b"),
])
def test_path_checker_rejects_bad_paths(steps, x, y):
    path = {"steps": [{"edge": e, "from": a, "to": b} for e, a, b in steps]}
    assert ck.check_path_json(CHAIN, path, x, y)


def test_constant_path_must_sit_at_its_endpoints():
    assert ck.check_path_json(CHAIN, {"steps": [], "at": "v:a"}, "v:a", "v:a") == []
    assert ck.check_path_json(CHAIN, {"steps": [], "at": "v:a"}, "v:a", "v:b")


def test_tree_plan_must_be_the_unique_tree_path():
    tree = {"vertices": ["a", "b", "c", "d"],
            "edges": [{"id": "x", "src": "a", "dst": "b"}, {"id": "y", "src": "b", "dst": "c"},
                      {"id": "z", "src": "d", "dst": "b"}]}
    good = {"steps": [{"edge": "z", "from": 0.5, "to": 1.0},
                      {"edge": "y", "from": 0.0, "to": 1.0}]}
    assert ck.check_tree_plan(tree, good, "e:z:0.5", "v:c") == []
    detour = {"steps": [{"edge": "x", "from": 0.0, "to": 1.0},
                        {"edge": "y", "from": 0.0, "to": 1.0}]}
    assert ck.check_tree_plan(tree, detour, "e:z:0.5", "v:c")
    assert ck.tree_path(tree, "v:c", "v:a") is None


# -- complexity values ------------------------------------------------------

def test_betti_and_strong_connectivity():
    fig8 = {"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"},
                                         {"id": "b", "src": "v", "dst": "v"}]}
    assert ck.betti1(fig8) == 2 and ck.strongly_connected(fig8)
    assert ck.betti1(CIRCLE) == 1 and not ck.strongly_connected(CIRCLE)
    assert ck.check_ditc({"lower": 3, "upper": 3, "exact": True}, 3, 3) == []
    assert ck.check_ditc({"lower": 2, "upper": 3, "exact": False}, 3, 3)
    assert ck.check_ditc_bounds({"lower": 2, "upper": 3, "exact": False}, 3) == []
    assert ck.check_ditc_bounds({"lower": 2, "upper": 3, "exact": False}, 2)


# -- PV programs ------------------------------------------------------------

def test_step_automaton_sees_the_deadlock_notch():
    auto = ck.StepAutomaton("Pa.Pb.Va.Vb|Pb.Pa.Vb.Va")
    assert auto.reaches((0, 0), (2, 2))
    assert not auto.reaches((2, 2), (4, 4))
    assert auto.reaches((0, 0), (4, 4))


def _staircase(moves):
    pts, (x, y) = [(0, 0)], (0, 0)
    for m in moves:
        x, y = (x + 1, y) if m == "h" else (x, y + 1)
        pts.append((x, y))
    return pts


def test_schedule_checker_accepts_a_safe_schedule():
    text = "Pa.Va|Pa.Va"
    sched = {"path": _staircase("hhvv"), "interleaving": ["1:Pa", "1:Va", "2:Pa", "2:Va"]}
    assert ck.check_schedule(text, (0, 0), (2, 2), 1, sched) == []


def test_schedule_checker_rejects_a_broken_interleaving():
    text = "Pa.Va|Pa.Va"
    sched = {"path": _staircase("hhvv"), "interleaving": ["1:Pa", "2:Pa", "1:Va", "2:Va"]}
    assert any("locks a" in p for p in ck.check_schedule(text, (0, 0), (2, 2), 1, sched))


def test_schedule_checker_rejects_a_path_through_a_rectangle():
    text = "Pa.Va|Pa.Va"       # open rectangle (1,2) x (1,2)
    sched = {"path": [(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1.5, 0.5), (2, 0.5), (2, 1),
                      (2, 1.5), (2, 2)],
             "interleaving": ["1:Pa", "1:Va", "2:Pa", "2:Va"]}
    assert ck.check_schedule(text, (0, 0), (2, 2), 2, sched) == []
    through = dict(sched, path=[(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1), (1.5, 1),
                                (1.5, 1.5), (2, 1.5), (2, 2)])
    assert any("rectangle" in p for p in ck.check_schedule(text, (0, 0), (2, 2), 2, through))


# -- natural homology -------------------------------------------------------

def test_diagram_checker_rejects_a_wrong_rank():
    good = [{"id": "b>e:top", "source": "v:b", "target": "v:e", "rank": 2},
            {"id": "b>e:bot", "source": "v:b", "target": "v:e", "rank": 2},
            {"id": "b>b", "source": "v:b", "target": "v:b", "rank": 1},
            {"id": "e>e", "source": "v:e", "target": "v:e", "rank": 1}]
    assert ck.check_diagram(CIRCLE, good) == []
    assert ck.check_samples_covered(CIRCLE, ["v:b", "v:e"], good) == []
    bad = [dict(o, rank=1) for o in good]
    assert ck.check_diagram(CIRCLE, bad)
    assert ck.check_samples_covered(CIRCLE, ["v:b", "v:e"], good[1:])


def test_path_counts_on_a_ladder():
    ladder = gen.diamond_ladder(random.Random(3), 3)
    assert ck.count_paths(ladder, "v:j0", "v:j3") == 8
    assert ck.count_paths(ladder, "v:j3", "v:j0") == 0
    assert ck.count_paths(ladder, "v:j1", "v:j1") == 1


# -- cube boundaries --------------------------------------------------------

def _lattice_points(n, grid):
    coords = [k / grid for k in range(grid + 1)]
    return [p for p in itertools.product(coords, repeat=n + 1) if any(c in (0.0, 1.0) for c in p)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_closed_form_matches_lattice_search(n):
    rng = random.Random(n)
    points = _lattice_points(n, 4)
    pairs = list(itertools.product(points, repeat=2)) if n == 1 else \
        [(rng.choice(points), rng.choice(points)) for _ in range(1500)]
    for x, y in pairs:
        assert ck.sphere_reach(x, y) == ck.lattice_reach(x, y, 4), (x, y)
    fine = _lattice_points(n, 8)
    for _ in range(300):
        x, y = rng.choice(fine), rng.choice(fine)
        assert ck.sphere_reach(x, y) == ck.lattice_reach(x, y, 8), (x, y)


def test_off_lattice_fault_input_is_unreachable():
    assert ck.sphere_reach((0.0, 0.01), (1.0, 0.5)) is False


# -- CLI output checks ------------------------------------------------------

def test_exit_checker():
    assert ck.check_exit(0, "") == []
    assert ck.check_exit(1, "ditopo: cannot read input\n") == []
    assert ck.check_exit(1, "Traceback (most recent call last):\nValueError: x\n")
    assert ck.check_exit(3, "")


@pytest.fixture()
def cli_workload(tmp_path):
    import spans
    import workloads
    return workloads.CliOneshot(1, spans.Tracer(), tmp_path, SRC)


def _op(workload, kind):
    return next(op for op in workload.pool if op["kind"] == kind)


def test_cli_checker_rejects_a_wrong_sphere_answer(cli_workload):
    op = _op(cli_workload, "sphere_reach")
    argv = op["argv"]
    x, y = (tuple(map(float, argv[argv.index(f) + 1].split(","))) for f in ("--from", "--to"))
    want = ck.sphere_reach(x, y)
    assert cli_workload.check(op, (0, json.dumps({"member": want}), "")) == []
    assert cli_workload.check(op, (0, json.dumps({"member": not want}), ""))


def test_cli_checker_flags_the_kept_faults(cli_workload):
    op = _op(cli_workload, "sphere_off_lattice")
    assert cli_workload.is_fault(op)
    assert cli_workload.check(op, (0, json.dumps({"member": True}), ""))
    assert cli_workload.check(op, (0, json.dumps({"member": False}), "")) == []
    op = _op(cli_workload, "bad_point")
    assert cli_workload.check(op, (1, "", "Traceback (most recent call last):\n"))
    assert cli_workload.check(op, (1, "", "ditopo: error: bad point\n")) == []


def test_every_cli_request_passes_in_process_except_the_faults(cli_workload):
    import workloads
    for op in cli_workload.pool[:cli_workload.round_size]:
        problems = cli_workload.check(op, workloads._main_in_process(op["argv"]))
        assert bool(problems) == cli_workload.is_fault(op), (op["kind"], problems)


# -- inputs and tracing -----------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    assert gen.certify_inputs(5) == gen.certify_inputs(5)
    assert gen.certify_inputs(5) != gen.certify_inputs(6)
    assert gen.concurrency_inputs(5)[:3] == gen.concurrency_inputs(5)[:3]


def test_generated_pv_programs_are_schedulable():
    for inp in gen.concurrency_inputs(2)[:10]:
        assert ck.StepAutomaton(inp["program"]).reaches(inp["src"], inp["dst"])


def test_tracer_records_nested_spans_and_restores_the_library():
    import spans
    from ditopo import graph
    original = graph.gamma
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert graph.gamma is not original
        with tracer.op("test", 0):
            graph.ditc(graph.directed_circle())
    finally:
        tracer.uninstall()
    assert graph.gamma is original
    names = {s.name: s for s in tracer.spans}
    assert names["graph.gamma"].parent == names["graph.ditc"].id
    calls, total = tracer.totals("test", "graph.ditc")
    assert calls == 1 and total > 0
    assert names["graph.ditc"].total >= names["graph.ditc"].child > 0
