"""Trace-class enumeration and directed-complexity reports with witnesses."""

import random

import pytest
from pytest import approx

from conftest import all_small_graphs
from ditopo.core import (
    EdgeInterior,
    Reason,
    Step,
    Vertex,
    check_patch_continuity,
    check_section,
    points_equal,
)
from ditopo.errors import NotConnected
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
    is_strongly_connected_dspace,
    parallel_edges,
    subdivide,
    three_patch_planner,
    traces_between,
)


def figure_eight():
    return DirectedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")])


class TestTraces:
    def test_circle_has_two_classes(self):
        s = traces_between(directed_circle(), Vertex("b"), Vertex("e"))
        assert s.count == 2
        assert set(s.representatives) == {("top",), ("bot",)}

    def test_loop_is_infinite(self):
        s = traces_between(directed_loop(), Vertex("v"), Vertex("v"))
        assert s.infinite
        assert () in s.representatives
        assert ("l",) in s.representatives

    def test_single_edge_segment(self):
        s = traces_between(directed_interval(),
                           EdgeInterior("e", 0.2), EdgeInterior("e", 0.7))
        assert s.count == 1
        assert s.representatives == (("e",),)

    def test_unreachable_pair_is_empty(self):
        s = traces_between(directed_interval(), Vertex("1"), Vertex("0"))
        assert s.count == 0
        assert s.representatives == ()

    def test_backward_on_cycle_edge(self):
        s = traces_between(cycle_graph(3),
                           EdgeInterior("e0", 0.7), EdgeInterior("e0", 0.2))
        assert s.infinite
        assert s.representatives[0] == ("e0", "e1", "e2", "e0")

    def test_cutoff_bounds_representatives(self):
        s = traces_between(directed_loop(), Vertex("v"), Vertex("v"), cutoff=3)
        assert len(s.representatives) == 3

    def test_unique_traces_iff_tier_one(self, corpus):
        rng = random.Random(17)
        for g in corpus[:40]:
            report = ditc(g)
            oracle = gamma(g)
            sampled_unique = True
            for _ in range(30):
                x, y = oracle.sample_point(rng), oracle.sample_point(rng)
                if not oracle.membership(x, y):
                    continue
                if traces_between(g, x, y, cutoff=4).count != 1:
                    sampled_unique = False
                    break
            if report.reason is Reason.UNIQUE_TRACES:
                assert sampled_unique
            if not sampled_unique:
                assert report.reason is not Reason.UNIQUE_TRACES


class TestDitcRegression:
    def test_reference_values(self):
        assert ditc(directed_interval()).to_json() == {
            "lower": 1, "upper": 1, "exact": True, "reason": "UniqueTraces"}
        assert ditc(directed_circle()).to_json() == {
            "lower": 2, "upper": 2, "exact": True, "reason": "FiniteConflictTwoPatch"}
        loop = ditc(directed_loop())
        assert (loop.lower, loop.upper, loop.exact) == (2, 2, True)
        par = ditc(parallel_edges(3))
        assert (par.lower, par.upper, par.exact) == (2, 2, True)
        assert classical_tc_graph(parallel_edges(3)) == 3
        fig8 = ditc(figure_eight())
        assert (fig8.lower, fig8.upper, fig8.exact) == (3, 3, True)
        for n in range(3, 7):
            rep = ditc(cycle_graph(n))
            assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)

    def test_report_invariants(self, corpus):
        for g in corpus:
            rep = ditc(g)
            assert 1 <= rep.lower <= rep.upper <= 3
            assert rep.exact == (rep.lower == rep.upper)
            if rep.patchwork is not None:
                assert len(rep.patchwork.patches) == rep.upper

    def test_strongly_connected_lower_bound(self, corpus):
        for g in corpus:
            if is_strongly_connected_dspace(g):
                assert ditc(g).lower >= classical_tc_graph(g)

    def test_subdivision_invariance(self, corpus):
        for g in corpus:
            a, b = ditc(g), ditc(subdivide(g))
            assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)

    def test_reversal_invariance(self, corpus):
        """Reversing every edge gives the opposite directed space, whose
        bounds are the same."""
        for g in all_small_graphs(6) + corpus:
            a = ditc(g)
            b = ditc(DirectedGraph(g.vertices, [(e.id, e.dst, e.src) for e in g.edges]))
            assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact), g

    def test_tiers_at_scale(self):
        """Large multitrees and a large DAG with many two-path pairs get
        their tiers; a quadratic pair table would not fit these sizes."""
        rng = random.Random(27)
        n = 5000
        vs = [f"v{i}" for i in range(n)]
        chain = DirectedGraph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
        tree = []
        for i in range(1, n):
            a, b = vs[rng.randrange(i)], vs[i]
            tree.append((f"e{i}", *((a, b) if rng.random() < 0.5 else (b, a))))
        m = 2000
        dag = [(f"p{i}", vs[i], vs[i + 1]) for i in range(m - 1)]
        for i in range(2 * m):
            a, b = sorted(rng.sample(range(m), 2))
            dag.append((f"c{i}", vs[a], vs[b]))
        unique = {"lower": 1, "upper": 1, "exact": True, "reason": "UniqueTraces"}
        assert ditc(chain).to_json() == unique
        assert ditc(DirectedGraph(vs, tree)).to_json() == unique
        assert ditc(DirectedGraph(vs[:m], dag)).to_json() == {
            "lower": 2, "upper": 3, "exact": False, "reason": "GeneralThreePatch"}

    def test_disconnected_combination(self):
        g = DirectedGraph(
            ["a", "b", "u"],
            [("t", "a", "b"), ("s", "a", "b"), ("r", "a", "b"), ("l", "u", "u")])
        rep = ditc(g)
        assert (rep.lower, rep.upper) == (2, 2)
        with pytest.raises(NotConnected):
            ditc(g, combine_components=False)
        with pytest.raises(NotConnected):
            build_planner(g)


class TestBuildPlanner:
    def test_interval_section_is_the_direct_run(self):
        planner = build_planner(directed_interval())
        path = planner.plan(EdgeInterior("e", 0.25), EdgeInterior("e", 0.75))
        assert path.steps == (Step("e", 0.25, 0.75),)

    def test_three_patch_vertex_pairs_use_fixed_paths(self):
        g = figure_eight()
        planner = build_planner(g)
        assert planner.patch_ids() == ["F1", "F2", "F3"]
        path = planner.plan(Vertex("v"), Vertex("v"))
        assert path.length() == 0.0

    def test_three_patch_mixed_pair_runs_to_the_edge_end(self):
        g = DirectedGraph(["u", "w", "z"],
                          [("p", "u", "w"), ("q", "u", "w"), ("r", "w", "z"),
                           ("s", "z", "u")])
        planner = build_planner(g)
        x = EdgeInterior("p", 0.5)
        path = planner.plan(x, Vertex("z"))
        assert points_equal(path.start(), x)
        assert points_equal(path.end(), Vertex("z"))
        assert path.steps[0] == Step("p", 0.5, 1.0)

    def test_cycle_planner_matches_forward_gap(self):
        planner = build_planner(cycle_graph(3))
        x, y = EdgeInterior("e1", 0.5), EdgeInterior("e0", 0.25)
        path = planner.plan(x, y)
        assert points_equal(path.start(), x)
        assert points_equal(path.end(), y)
        assert path.length() == approx((0.25 + 3 - 1.5) % 3)

    def test_conflict_planner_patches(self):
        planner = build_planner(parallel_edges(3))
        assert planner.patch_ids() == ["conflicts", "rest"]
        claiming = planner.claiming_patches(Vertex("b"), Vertex("e"))
        assert [p.id for p in claiming] == ["conflicts"]

    def test_builtin_and_random_planners_pass_checks(self, corpus):
        builtins = [directed_interval(), directed_circle(), directed_loop(),
                    cycle_graph(4), parallel_edges(3), figure_eight()]
        for i, g in enumerate(builtins + corpus[:25]):
            planner = build_planner(g)
            report = check_section(planner, planner.space, samples=400, seed=i)
            assert report.total_violations == 0, report.to_json()
            for pid in planner.patch_ids():
                c = check_patch_continuity(planner, pid, pair_samples=60,
                                           perturbation=0.01, seed=i)
                assert c.max_ratio <= c.lipschitz_bound + 1e-6

    def test_tier_d_detection_with_interior_tails(self):
        # parallel edges with an inert tail hanging off the source keep the
        # conflict set at vertex pairs only
        g = DirectedGraph(["w", "b", "e"],
                          [("t", "w", "b"), ("p", "b", "e"), ("q", "b", "e")])
        rep = ditc(g)
        assert rep.reason is Reason.GENERAL_THREE_PATCH or rep.reason is Reason.FINITE_CONFLICT_TWO_PATCH
        # (w, e) has two classes through an interior-extendable vertex pair,
        # so this one must NOT be tier (d)
        assert rep.reason is Reason.GENERAL_THREE_PATCH

    def test_tier_d_positive_case(self):
        g = DirectedGraph(["b", "m", "e"],
                          [("p", "b", "m"), ("q", "b", "m"),
                           ("r", "m", "e"), ("s", "m", "e")])
        rep = ditc(g)
        assert rep.reason is Reason.GENERAL_THREE_PATCH
        g2 = parallel_edges(2)
        rep2 = ditc(g2)
        assert rep2.reason is Reason.FINITE_CONFLICT_TWO_PATCH
        assert (rep2.lower, rep2.upper) == (2, 2)


class TestThreePatchConstruction:
    def test_vertex_query_concatenates_fixed_edges(self):
        planner = three_patch_planner(cycle_graph(3))
        path = planner.plan(Vertex("v0"), Vertex("v2"))
        assert [s.edge for s in path.steps] == ["e0", "e1"]
        assert all(s.t_from == 0.0 and s.t_to == 1.0 for s in path.steps)

    def test_interior_to_vertex_runs_to_the_edge_end_first(self):
        planner = three_patch_planner(cycle_graph(3))
        path = planner.plan(EdgeInterior("e0", 0.5), Vertex("v2"))
        assert path.steps[0] == Step("e0", 0.5, 1.0)
        assert [s.edge for s in path.steps] == ["e0", "e1"]

    def test_same_edge_backward_routes_around(self):
        planner = three_patch_planner(cycle_graph(3))
        path = planner.plan(EdgeInterior("e0", 0.75), EdgeInterior("e0", 0.25))
        assert [s.edge for s in path.steps] == ["e0", "e1", "e2", "e0"]
        path.validate()

    def test_passes_checks_even_on_simple_graphs(self):
        planner = three_patch_planner(directed_interval())
        report = check_section(planner, planner.space, samples=300, seed=0)
        assert report.total_violations == 0


class TestCirclePlanner:
    def test_patch_shapes(self):
        planner = circle_planner()
        assert planner.patch_ids() == ["top", "bot"]
        # the three shared pairs belong to the first patch only
        for pair in [(Vertex("b"), Vertex("b")), (Vertex("b"), Vertex("e")),
                     (Vertex("e"), Vertex("e"))]:
            assert [p.id for p in planner.claiming_patches(*pair)] == ["top"]
        claiming = planner.claiming_patches(Vertex("b"), EdgeInterior("bot", 0.5))
        assert [p.id for p in claiming] == ["bot"]

    def test_sections_stay_on_their_arc(self):
        planner = circle_planner()
        path = planner.plan(Vertex("b"), EdgeInterior("bot", 0.5))
        assert path.steps == (Step("bot", 0.0, 0.5),)

    def test_clean_checks(self):
        planner = circle_planner()
        report = check_section(planner, planner.space, samples=1000, seed=9)
        assert report.total_violations == 0
        for pid in planner.patch_ids():
            cont = check_patch_continuity(planner, pid, pair_samples=80,
                                          perturbation=0.01, seed=9)
            assert cont.max_ratio <= cont.lipschitz_bound + 1e-6
