"""The row-sweep PV engine against the node-by-node grid search
(``GridBfsGamma``): full reachable and co-reachable sets, membership and
schedule JSON on seeded programs at resolutions 2-8, plus the scaling case
that the search could not do in reasonable time."""

import json
import random

import pytest

from conftest import GridBfsGamma, balanced_pv_processes
from ditopo.errors import Unreachable
from ditopo.pv import forbidden_regions, parse_pv, pv_gamma, replay_interleaving, schedule

FIXED = [
    "|",                                    # both processes empty
    "Pa.Va|",
    "|Pa.Va.Pb.Vb",
    "Pa.Pb.Va.Vb|Pb.Pa.Vb.Va",              # DEADLOCK: the notch below (2, 2)
    "Pa.Pb.Vb.Va|Pa.Pb.Vb.Va",              # nested locks, overlapping rectangles
    "Pa.Pb.Pc.Vc.Vb.Va|Pc.Pb.Pa.Va.Vb.Vc",  # three semaphores, nested
    "Pa.Va.Pb.Vb.Pc.Vc|Pc.Pa.Va.Pb.Vc.Vb",  # three semaphores, interleaved
    "Pa.Va.Pa.Va|Pa.Va.Pa.Va",
]


def _programs():
    rng = random.Random(20261019)
    processes = balanced_pv_processes(6, ("a", "b", "c"))
    texts = list(FIXED)
    while len(texts) < 40:
        p1, p2 = rng.choice(processes), rng.choice(processes)
        texts.append(".".join(map(str, p1)) + "|" + ".".join(map(str, p2)))
    return [(text, 2 + k % 7) for k, text in enumerate(texts)]


CASES = _programs()


def _forward_set(rows) -> set:
    return {(i, j) for j, row in enumerate(rows) for i in range(row.bit_length()) if row >> i & 1}


def _backward_set(rows, nx, ny) -> set:
    return {(nx - i, ny - j) for (i, j) in _forward_set(rows)}


def _case(text, resolution):
    """The oracle and the grid search for one case, with its nodes (the
    corners and random nodes, most of them off the integer lattice), its
    points (the nodes plus more random ones, in step units) and its
    schedule requests (pairs of points, ordered componentwise)."""
    prog = parse_pv(text)
    oracle, bfs = pv_gamma(prog, resolution), GridBfsGamma(prog, resolution)
    nx, ny, r = oracle.nx, oracle.ny, resolution
    rng = random.Random(text + str(resolution))
    nodes = [(0, 0), (nx, 0), (0, ny), (nx, ny)]
    nodes += [(rng.randint(0, nx), rng.randint(0, ny)) for _ in range(4)]
    points = [(a / r, b / r) for a, b in nodes]
    points += [(rng.randint(0, nx) / r, rng.randint(0, ny) / r) for _ in range(6)]
    requests = [((min(x[0], y[0]), min(x[1], y[1])), (max(x[0], y[0]), max(x[1], y[1])))
                for x, y in zip(points, reversed(points))]
    return prog, oracle, bfs, nodes, points, requests


@pytest.mark.parametrize("text,resolution", CASES)
def test_reach_sets_membership_and_schedules_match_the_grid_search(text, resolution):
    prog, oracle, bfs, nodes, points, requests = _case(text, resolution)
    for node in nodes:
        assert _forward_set(oracle._reach(node)) == bfs.reachable_from(node), (text, node)
        assert (_backward_set(oracle._coreach(node), oracle.nx, oracle.ny)
                == bfs.coreachable_to(node)), (text, node)
    for x in points:
        for y in points:
            assert oracle.membership(x, y) == bfs.membership(x, y), (text, x, y)
    for x, y in requests:
        want = bfs.schedule_json(x, y)
        if want is None:
            with pytest.raises(Unreachable):
                schedule(prog, x, y, resolution)
        else:
            got = schedule(prog, x, y, resolution).to_json()
            assert json.dumps(got) == json.dumps(want), (text, x, y)


def test_cases_reach_every_kind_of_answer():
    """The seeded cases include points strictly inside a rectangle, pairs
    of points of the space that are ordered yet unreachable, and both
    outcomes of a schedule request."""
    interior = blocked = scheduled = refused = 0
    for text, resolution in CASES:
        _, oracle, _, _, points, requests = _case(text, resolution)
        valid = [p for p in points if oracle.valid_node(oracle.snap(p))]
        interior += len(points) - len(valid)
        blocked += sum(x[0] <= y[0] and x[1] <= y[1] and not oracle.membership(x, y)
                       for x in valid for y in valid)
        outcomes = [oracle.membership(x, y) for x, y in requests]
        scheduled += sum(outcomes)
        refused += len(outcomes) - sum(outcomes)
    assert interior >= 40 and blocked >= 50 and scheduled >= 200 and refused >= 75


def test_interior_point_reaches_only_itself_and_is_not_a_point():
    oracle = pv_gamma(parse_pv("Pa.Va|Pa.Va"), 4)
    inside = (6, 6)
    assert _forward_set(oracle._reach(inside)) == {inside}
    assert not oracle.membership((1.5, 1.5), (1.5, 1.5))
    assert not oracle.membership((1.5, 1.5), (2, 2))
    assert not oracle.membership((0, 0), (1.5, 1.5))


def test_deadlock_notch_off_the_lattice():
    prog = parse_pv("Pa.Pb.Va.Vb|Pb.Pa.Vb.Va")
    oracle, bfs = pv_gamma(prog, 4), GridBfsGamma(prog, 4)
    for x in [(0.25, 0.5), (1.75, 1), (1.75, 1.5), (1, 1.75), (2.25, 2)]:
        for y in [(2, 2), (4, 4), (3.5, 2.25)]:
            assert oracle.membership(x, y) == bfs.membership(x, y), (x, y)
    assert oracle.membership((0.25, 0.5), (4, 4))
    assert oracle.membership((1.75, 1), (4, 4))
    assert not oracle.membership((1.75, 1.5), (4, 4))


def test_long_schedule_is_a_row_sweep_not_a_search():
    """(Pa.Va.Pb.Vb)^16 in both processes.  The node-by-node search took
    about 51 s on this case (2-core Intel Xeon, Python 3.11), so a return
    to one shows in the suite's time."""
    text = ".".join(["Pa.Va.Pb.Vb"] * 16)
    prog = parse_pv(f"{text}|{text}")
    s = schedule(prog, (0, 0), (64, 64))
    assert len(s.points) == 1025
    assert s.points[0] == (0.0, 0.0) and s.points[-1] == (64.0, 64.0)
    for (a, b), (c, d) in zip(s.points, s.points[1:]):
        assert (c - a, d - b) in ((0.125, 0), (0, 0.125))
    rects = forbidden_regions(prog).rectangles
    assert not any(q.contains_open(a, b) for q in rects for (a, b) in s.points[::7])
    peaks = replay_interleaving(prog, s.interleaving)
    assert set(peaks) == {"a", "b"} and all(v <= 1 for v in peaks.values())
    assert len(s.interleaving) == 128
