"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: integer complexity
values exact, section endpoints 1e-9, continuity ratio within declared
bound + 1e-6, oracle equivalences exact.
"""

import random
import time

from conftest import (
    BruteGamma,
    StepAutomaton,
    all_small_graphs,
    balanced_pv_processes,
    cell_pair_probes,
    lattice_sphere_gamma,
)
from ditopo.core import Vertex, check_patch_continuity, check_section
from ditopo.errors import InfiniteTraceSpace
from ditopo.graph import (
    DirectedGraph,
    build_planner,
    circle_planner,
    classical_tc_graph,
    cycle_graph,
    directed_circle,
    directed_interval,
    directed_loop,
    ditc,
    gamma,
    interval_planner,
    is_strongly_connected_dspace,
    loop_planner,
    parallel_edges,
    subdivide,
)
from ditopo.nathom import factorization_diagram, is_bisimilar_to_point
from ditopo.product import torus_planner
from ditopo.pv import forbidden_regions, parse_pv, pv_gamma, replay_interleaving, schedule
from ditopo.sphere import (
    sample_boundary_point,
    sphere_ditc,
    sphere_gamma,
    sphere_planner_1,
)


def report(num: int, failures: list, detail: str):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} — {detail}"
          + (f"; first failure: {failures[0]}" if failures else ""))
    assert not failures, f"criterion {num}: {failures[:5]}"


def figure_eight():
    return DirectedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")])


def builtin_graphs():
    return [("interval", directed_interval()),
            ("circle", directed_circle()),
            ("loop", directed_loop()),
            ("cycle4", cycle_graph(4)),
            ("parallel3", parallel_edges(3)),
            ("figure8", figure_eight())]


def test_criterion_01_ditc_regression():
    started = time.time()
    failures = []
    expected = [
        ("interval", directed_interval(), 1),
        ("circle", directed_circle(), 2),
        ("loop", directed_loop(), 2),
        ("parallel3", parallel_edges(3), 2),
        ("figure8", figure_eight(), 3),
    ] + [(f"C{n}", cycle_graph(n), 2) for n in range(3, 7)]
    for name, g, want in expected:
        rep = ditc(g)
        if not (rep.exact and rep.lower == rep.upper == want):
            failures.append((name, rep.to_json(), want))
    if classical_tc_graph(parallel_edges(3)) != 3:
        failures.append(("parallel3 classical", classical_tc_graph(parallel_edges(3))))
    elapsed = time.time() - started
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    report(1, failures, f"exact complexity on 9 reference graphs in {elapsed:.2f}s")


def test_criterion_02_torus():
    failures = []
    for n in range(1, 5):
        planner, rep = torus_planner(n)
        if not (rep.exact and rep.lower == rep.upper == n + 1):
            failures.append((n, rep.to_json()))
        if len(planner.patches) != n + 1:
            failures.append((n, "patch count", len(planner.patches)))
        check = check_section(planner, planner.space, samples=1000, seed=n)
        if check.total_violations:
            failures.append((n, check.to_json()))
    report(2, failures, "tori n=1..4 exact n+1 with clean 1000-sample checks")


def test_criterion_03_planner_soundness(corpus):
    failures = []
    planners = [build_planner(g) for _, g in builtin_graphs()]
    planners += [interval_planner(), circle_planner(), loop_planner()]
    planners += [build_planner(g) for g in corpus]
    for i, planner in enumerate(planners):
        check = check_section(planner, planner.space, samples=1000, seed=i)
        if check.total_violations:
            failures.append((i, "section", check.to_json()))
        for pid in planner.patch_ids():
            cont = check_patch_continuity(planner, pid, pair_samples=60,
                                          perturbation=0.01, seed=i)
            if cont.max_ratio > cont.lipschitz_bound + 1e-6:
                failures.append((i, pid, cont.max_ratio, cont.lipschitz_bound))
    report(3, failures,
           f"{len(planners)} planners x 1000 section samples + continuity bounds")


def test_criterion_04_subdivision_invariance(corpus):
    failures = []
    for i, g in enumerate(corpus):
        a, b = ditc(g), ditc(subdivide(g))
        if (a.lower, a.upper, a.exact) != (b.lower, b.upper, b.exact):
            failures.append((i, a.to_json(), b.to_json()))
    report(4, failures, f"ditc stable under edge subdivision on {len(corpus)} graphs")


def test_criterion_05_strong_connectivity_inequality(corpus):
    failures = []
    checked = 0
    for i, g in enumerate(corpus):
        if not is_strongly_connected_dspace(g):
            continue
        checked += 1
        if ditc(g).lower < classical_tc_graph(g):
            failures.append((i, ditc(g).to_json(), classical_tc_graph(g)))
    report(5, failures,
           f"lower bound >= classical complexity on {checked} strongly connected graphs")


def test_criterion_06_oracle_equivalence():
    failures = []
    graphs = all_small_graphs(5)
    for g in graphs:
        oracle = gamma(g)
        brute = BruteGamma(g, 32)
        for x, y in cell_pair_probes(g, 32):
            if oracle.membership(x, y) != brute.reachable(x, y):
                failures.append((g.to_json(), repr(x), repr(y)))

    rng = random.Random(424242)
    processes = balanced_pv_processes(4)
    texts = set()
    while len(texts) < 20:
        p1 = ".".join(map(str, rng.choice(processes)))
        p2 = ".".join(map(str, rng.choice(processes)))
        texts.add(f"{p1}|{p2}")
    for text in sorted(texts):
        prog = parse_pv(text)
        oracle = pv_gamma(prog, 8)
        automaton = StepAutomaton(prog)
        n1, n2 = prog.shape
        states = [(i, j) for i in range(n1 + 1) for j in range(n2 + 1)]
        for start in states:
            for goal in states:
                if oracle.membership(start, goal) != automaton.reachable(start, goal):
                    failures.append((text, start, goal))
    report(6, failures,
           f"graph oracle == brute BFS on {len(graphs)} small graphs; "
           f"pv oracle == step automaton on 20 programs")


def test_criterion_07_pv_reproduction():
    failures = []
    grid = parse_pv("Pa.Va.Pa.Va|Pa.Va.Pa.Va")
    rects = forbidden_regions(grid).rectangles
    if len(rects) != 4:
        failures.append(("rectangles", len(rects)))
    sched = schedule(grid, (0, 0), (4, 4))
    peaks = replay_interleaving(grid, sched.interleaving)
    if any(v > 1 for v in peaks.values()):
        failures.append(("mutual exclusion", peaks))
    if sched.points[0] != (0.0, 0.0) or sched.points[-1] != (4.0, 4.0):
        failures.append(("endpoints", sched.points[0], sched.points[-1]))

    dead = parse_pv("Pa.Pb.Va.Vb|Pb.Pa.Vb.Va")
    oracle = pv_gamma(dead, 8)
    automaton = StepAutomaton(dead)
    stuck = (2, 2)
    if oracle.membership(stuck, (4, 4)):
        failures.append(("deadlock notch reachable via grid", stuck))
    if automaton.reachable(stuck, (4, 4)):
        failures.append(("deadlock notch reachable via automaton", stuck))
    if not (oracle.membership((0, 0), stuck) and automaton.reachable((0, 0), stuck)):
        failures.append(("notch itself unreachable", stuck))
    report(7, failures,
           "4 rectangles, full-run schedule with mutual exclusion, deadlock notch")


def test_criterion_08_natural_homology_reproduction():
    failures = []
    d = factorization_diagram(directed_circle(), [Vertex("b"), Vertex("e")])
    ranks = d.ranks()
    maximal = {oid for oid, r in ranks.items() if r == 2}
    if maximal != {"v:b>v:e:top", "v:b>v:e:bot"}:
        failures.append(("maximal objects", sorted(maximal)))
    if sorted(ranks.values()) != [1, 1, 2, 2]:
        failures.append(("ranks", sorted(ranks.values())))
    for arc in ("top", "bot"):
        ext = [m for m in d.morphisms
               if m.src == "v:b>v:b:const" and m.dst == f"v:b>v:e:{arc}"]
        if len(ext) != 1:
            failures.append((arc, "extension count", len(ext)))
            continue
        target = d.object(f"v:b>v:e:{arc}").basis.index((arc,))
        column = [row[0] for row in ext[0].matrix]
        if column[target] != 1 or sum(column) != 1:
            failures.append((arc, "matrix", column))
    if is_bisimilar_to_point(d)[0]:
        failures.append(("circle bisimilar", True))
    di = factorization_diagram(directed_interval(), [Vertex("0"), Vertex("1")])
    if not is_bisimilar_to_point(di)[0]:
        failures.append(("interval bisimilar", False))
    report(8, failures, "circle diagram ranks/matrices; point checks both ways")


def test_criterion_09_dicontractibility_consistency(corpus):
    failures = []
    checked = 0
    for i, g in enumerate(corpus):
        try:
            d = factorization_diagram(g, [Vertex(v) for v in g.vertices])
        except InfiniteTraceSpace:
            continue
        checked += 1
        rep = ditc(g)
        point_like = is_bisimilar_to_point(d)[0]
        complexity_one = rep.exact and rep.lower == 1
        if point_like != complexity_one:
            failures.append((i, rep.to_json(), point_like))
    report(9, failures,
           f"complexity 1 <=> point-like diagram on {checked} finite-diagram graphs")


def test_criterion_10_sphere():
    failures = []
    rng = random.Random(1010)
    for n in (1, 2, 3):
        for _ in range(1000):
            x = sample_boundary_point(n, rng)
            y = sample_boundary_point(n, rng)
            for grid in (16, 32):
                if sphere_gamma(n, x, y, grid) != lattice_sphere_gamma(n, x, y, grid):
                    failures.append((n, x, y, grid))
    if sphere_gamma(1, (0.0, 0.5), (1.0, 0.6)):
        failures.append(("blocked pair reported reachable",))
    planner = sphere_planner_1()
    check = check_section(planner, planner.space, samples=1000, seed=10)
    if check.total_violations:
        failures.append(("planner", check.to_json()))
    for n in (1, 2, 4):
        rep = sphere_ditc(n)
        if not (rep.exact and rep.lower == rep.upper == 2):
            failures.append((n, rep.to_json()))
    report(10, failures,
           "lattice search at grids 16 and 32 (3000 pairs), blocked pair, planner, constant 2")
