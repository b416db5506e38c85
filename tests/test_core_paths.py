"""Points, paths, evaluation, concatenation, and the exact sup metric."""

import math
import random

import pytest
from pytest import approx

from ditopo.core import (
    DiPath,
    EdgeInterior,
    Step,
    Vertex,
    concatenate,
    format_point,
    parse_point,
    path_sup_distance,
    points_equal,
    sup_distance,
)
from ditopo.errors import EndpointMismatch, InvalidPath, InvalidPoint, OutOfRange
from ditopo.graph import (
    DirectedGraph,
    cycle_graph,
    directed_circle,
    directed_interval,
    directed_loop,
    gamma,
)


@pytest.fixture
def interval():
    return directed_interval()


@pytest.fixture
def circle():
    return directed_circle()


class TestPoints:
    def test_interior_parameter_must_be_strict(self):
        with pytest.raises(InvalidPoint):
            EdgeInterior("e", 0.0)
        with pytest.raises(InvalidPoint):
            EdgeInterior("e", 1.0)
        with pytest.raises(InvalidPoint):
            EdgeInterior("e", math.nan)

    def test_points_equal_tolerance(self):
        assert points_equal(EdgeInterior("e", 0.5), EdgeInterior("e", 0.5 + 1e-12))
        assert not points_equal(EdgeInterior("e", 0.5), EdgeInterior("e", 0.5001))
        assert not points_equal(Vertex("0"), EdgeInterior("e", 0.5))
        assert points_equal(Vertex("b"), Vertex("b"))

    def test_encoding_round_trip(self):
        for p in (Vertex("b"), EdgeInterior("top", 0.25)):
            assert parse_point(format_point(p)) == p
        with pytest.raises(InvalidPoint):
            parse_point("x:nope")

    def test_point_at_normalizes_boundaries(self, interval):
        assert interval.point_at("e", 0.0) == Vertex("0")
        assert interval.point_at("e", 1.0) == Vertex("1")
        assert interval.point_at("e", 0.3) == EdgeInterior("e", 0.3)


class TestEvaluate:
    def test_endpoints(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 1.0)])
        assert p.evaluate(0.0) == Vertex("0")
        assert p.evaluate(1.0) == Vertex("1")

    def test_quarter_point(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 1.0)])
        assert p.evaluate(0.25) == EdgeInterior("e", 0.25)

    def test_junction_of_two_unit_steps(self):
        g = DirectedGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        p = DiPath.from_steps(g, [("e1", 0.0, 1.0), ("e2", 0.0, 1.0)])
        assert p.evaluate(0.5) == Vertex("b")

    def test_constant_paths_sit_still(self, interval):
        p = DiPath.constant(interval, Vertex("0"))
        for s in (0.0, 0.37, 1.0):
            assert p.evaluate(s) == Vertex("0")
        q = DiPath.constant(interval, EdgeInterior("e", 0.4))
        assert q.evaluate(0.9) == EdgeInterior("e", 0.4)

    def test_repeated_step_object(self):
        # concatenate(a, a) shares a's one Step object between both laps;
        # the second lap must still be walked, not cut at the first
        loop = directed_loop()
        a = DiPath.from_steps(loop, [("l", 0.0, 1.0)])
        twice = concatenate(a, a)
        assert twice.evaluate(0.75) == EdgeInterior("l", 0.5)
        assert twice.evaluate_many([0.25, 0.5, 0.75]) == [
            EdgeInterior("l", 0.5), Vertex("v"), EdgeInterior("l", 0.5)]

    def test_out_of_range(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 1.0)])
        with pytest.raises(OutOfRange):
            p.evaluate(1.5)
        with pytest.raises(OutOfRange):
            p.evaluate(-0.1)

    def test_validation_rejects_backward_steps(self, interval):
        p = DiPath(interval, [Step("e", 0.7, 0.2)])
        with pytest.raises(InvalidPath):
            p.validate()

    def test_validation_rejects_non_incident_steps(self, circle):
        p = DiPath(circle, [Step("top", 0.0, 0.5), Step("bot", 0.5, 1.0)])
        with pytest.raises(InvalidPath):
            p.validate()


class TestConcatenate:
    def test_constant_prefix_is_identity(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 0.8)])
        c = DiPath.constant(interval, Vertex("0"))
        assert concatenate(c, p).steps == p.steps

    def test_same_edge_merge(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 0.5)])
        q = DiPath.from_steps(interval, [("e", 0.5, 1.0)])
        joined = concatenate(p, q)
        assert joined.steps == (Step("e", 0.0, 1.0),)

    def test_endpoint_mismatch(self, circle):
        top = DiPath.from_steps(circle, [("top", 0.0, 1.0)])
        bot = DiPath.from_steps(circle, [("bot", 0.0, 1.0)])
        with pytest.raises(EndpointMismatch):
            concatenate(top, bot)

    def test_associativity_pointwise(self, circle):
        rng = random.Random(11)
        g = DirectedGraph(["a", "b", "c", "d"],
                          [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")])
        for _ in range(50):
            cut1, cut2 = sorted((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)))
            p = DiPath.from_steps(g, [("e1", 0.0, 1.0), ("e2", 0.0, cut1)])
            q = DiPath.from_steps(g, [("e2", cut1, cut2)])
            r = DiPath.from_steps(g, [("e2", cut2, 1.0), ("e3", 0.0, 1.0)])
            left = concatenate(concatenate(p, q), r)
            right = concatenate(p, concatenate(q, r))
            for i in range(65):
                s = i / 64
                assert points_equal(left.evaluate(s), right.evaluate(s))


class TestSubpath:
    def test_subpath_spans_and_endpoints(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 1.0)])
        mid = p.subpath(0.25, 0.75)
        assert mid.start() == EdgeInterior("e", 0.25)
        assert mid.end() == EdgeInterior("e", 0.75)

    def test_degenerate_subpath_is_constant(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.0, 1.0)])
        c = p.subpath(0.5, 0.5)
        assert c.length() == 0.0
        assert points_equal(c.start(), EdgeInterior("e", 0.5))


class TestSupDistance:
    def test_identical_paths(self, interval):
        p = DiPath.from_steps(interval, [("e", 0.1, 0.9)])
        assert sup_distance(p, p) == 0.0

    def test_constant_paths_realize_point_distance(self):
        g = DirectedGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        p = DiPath.constant(g, Vertex("a"))
        q = DiPath.constant(g, Vertex("c"))
        assert sup_distance(p, q) == approx(2.0)

    def test_linear_sections_on_interval(self, interval):
        # the straight sections from 0.2 and 0.3 to 0.7: the distance
        # |(1-t) * 0.1| is largest at t = 0, the start
        p = DiPath.from_steps(interval, [("e", 0.2, 0.7)])
        q = DiPath.from_steps(interval, [("e", 0.3, 0.7)])
        assert sup_distance(p, q) == approx(0.1, abs=1e-12)

    def test_lap_of_a_two_cycle_peaks_at_its_breakpoint(self):
        # a -> b -> a is farthest from a at b, fraction 1/2, which no
        # fraction i/63 of a 64-sample grid hits: that grid read 0.984
        g = DirectedGraph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
        lap = DiPath.from_steps(g, [("e", 0.0, 1.0), ("f", 0.0, 1.0)])
        home = DiPath.constant(g, Vertex("a"))
        assert sup_distance(lap, home) == 1.0
        assert sup_distance(home, lap) == 1.0
        assert path_sup_distance(lap, home, gamma(g)) == 1.0

    def test_peak_where_the_shortest_route_switches(self):
        # on the 3-cycle v0 -> v1 -> v2 -> v0, the point at t on e0 is
        # min(t + 1, 2 - t) from v2: largest at t = 1/2, inside the one step
        g = cycle_graph(3)
        p = DiPath.from_steps(g, [("e0", 0.0, 1.0)])
        q = DiPath.constant(g, Vertex("v2"))
        assert g.sup_fractions(p, q) == [0.0, 0.5, 1.0]
        assert sup_distance(p, q) == 1.5

    def test_same_edge_paths_add_the_zero_of_their_gap(self, interval):
        # a = 0.6 s and b = 0.3 + 0.2 s meet at s = 3/4
        p = DiPath.from_steps(interval, [("e", 0.0, 0.6)])
        q = DiPath.from_steps(interval, [("e", 0.3, 0.5)])
        assert interval.sup_fractions(p, q) == approx([0.0, 0.75, 1.0], abs=1e-15)
        assert sup_distance(p, q) == approx(0.3, abs=1e-15)

    def test_pseudometric_on_sampled_triples(self, circle):
        rng = random.Random(3)
        paths = []
        for _ in range(12):
            edge = rng.choice(["top", "bot"])
            a, b = sorted((rng.random(), rng.random()))
            paths.append(DiPath.from_steps(circle, [(edge, a, b)]))
        for p in paths:
            for q in paths:
                assert sup_distance(p, q) == approx(sup_distance(q, p))
                for r in paths:
                    assert (sup_distance(p, r)
                            <= sup_distance(p, q) + sup_distance(q, r) + 1e-9)

    def test_json_round_trip(self, circle):
        p = DiPath.from_steps(circle, [("top", 0.0, 0.5)])
        assert DiPath.from_json(circle, p.to_json()).steps == p.steps
        c = DiPath.constant(circle, Vertex("b"))
        assert DiPath.from_json(circle, c.to_json()).basepoint == Vertex("b")


class TestGraphMetric:
    def test_loop_wraps(self):
        g = DirectedGraph(["v"], [("l", "v", "v")])
        assert g.distance(EdgeInterior("l", 0.05), EdgeInterior("l", 0.95)) == approx(0.1)
        assert g.distance(EdgeInterior("l", 0.25), EdgeInterior("l", 0.75)) == approx(0.5)

    def test_disconnected_is_infinite(self):
        g = DirectedGraph(["a", "b"], [])
        assert g.distance(Vertex("a"), Vertex("b")) == math.inf
