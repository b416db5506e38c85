"""Componentwise reachability, graded product planners, and directed tori."""

import random

import pytest

from ditopo.core import (
    EdgeInterior,
    Patchwork,
    Vertex,
    check_patch_continuity,
    check_section,
    points_equal,
)
from ditopo.errors import NotRegular
from ditopo.graph import directed_interval, gamma, interval_planner, loop_planner
from ditopo.product import (
    parse_torus_point,
    product_gamma,
    product_planner,
    torus_planner,
    turns_to_point,
)


class TestProductGamma:
    def test_loops_are_fully_reachable(self):
        oracle = product_gamma([loop_planner().space, loop_planner().space])
        rng = random.Random(0)
        for _ in range(50):
            x, y = oracle.sample_point(rng), oracle.sample_point(rng)
            assert oracle.membership(x, y)

    def test_interval_square_orders_componentwise(self):
        iv = gamma(directed_interval())
        oracle = product_gamma([iv, iv])
        x = (EdgeInterior("e", 0.2), EdgeInterior("e", 0.3))
        y = (EdgeInterior("e", 0.1), EdgeInterior("e", 0.9))
        assert not oracle.membership(x, y)
        assert oracle.membership(x, (EdgeInterior("e", 0.4), EdgeInterior("e", 0.9)))

    def test_reflexive(self):
        iv = gamma(directed_interval())
        oracle = product_gamma([iv, iv])
        p = (Vertex("0"), EdgeInterior("e", 0.5))
        assert oracle.membership(p, p)


class TestProductPlanner:
    def test_patch_count_formula(self):
        factors = [(loop_planner().space, loop_planner()),
                   (interval_planner().space, interval_planner()),
                   (loop_planner().space, loop_planner())]
        planner = product_planner(factors)
        expected = 1 + sum(len(p.patches) - 1 for _, p in factors)
        assert len(planner.patches) == expected

    def test_rejects_unflagged_factors(self):
        base = loop_planner()
        informal = Patchwork(base.patches, regular=False, space=base.space)
        with pytest.raises(NotRegular):
            product_planner([(base.space, informal)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grade_counts_offdiagonal_coordinates(self, n):
        planner, _ = torus_planner(n)
        oracle = planner.space
        rng = random.Random(n)
        for _ in range(1000):
            x, y = oracle.sample_point(rng), oracle.sample_point(rng)
            off = sum(0 if points_equal(a, b) else 1 for a, b in zip(x, y))
            claiming = planner.claiming_patches(x, y)
            assert [p.id for p in claiming] == [f"G{off}"]

    def test_product_space_bundles_factors(self):
        factors = [(loop_planner().space, loop_planner()),
                   (loop_planner().space, loop_planner())]
        planner = product_planner(factors)
        assert len(planner.patches) == 3
        oracle = product_gamma([f[0] for f in factors])
        rng = random.Random(8)
        x = oracle.sample_point(rng)
        assert oracle.membership(x, x)

    def test_cylinder_interval_times_loop(self):
        factors = [(interval_planner().space, interval_planner()),
                   (loop_planner().space, loop_planner())]
        planner = product_planner(factors)
        assert planner.patch_ids() == ["G0", "G1"]
        check = check_section(planner, planner.space, samples=500, seed=12)
        assert check.total_violations == 0
        for pid in planner.patch_ids():
            rep = check_patch_continuity(planner, pid, pair_samples=60,
                                         perturbation=0.01, seed=12)
            assert rep.max_ratio <= rep.lipschitz_bound + 1e-6

    def test_sections_are_componentwise(self):
        planner, _ = torus_planner(2)
        x = parse_torus_point("0.1,0.2", 2)
        y = parse_torus_point("0.1,0.9", 2)
        path = planner.plan(x, y)
        assert points_equal(path.start(), x)
        assert points_equal(path.end(), y)
        assert path.components[0].length() == 0.0


class TestTorus:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reports_and_partitions(self, n):
        planner, report = torus_planner(n)
        assert report.to_json() == {
            "lower": n + 1, "upper": n + 1, "exact": True, "reason": "KnownBuiltin"}
        assert len(planner.patches) == n + 1
        check = check_section(planner, planner.space, samples=400, seed=n)
        assert check.total_violations == 0

    def test_continuity_within_declared_bounds(self):
        planner, _ = torus_planner(2)
        for pid in planner.patch_ids():
            rep = check_patch_continuity(planner, pid, pair_samples=80,
                                         perturbation=0.01, seed=5)
            assert rep.max_ratio <= rep.lipschitz_bound + 1e-6

    def test_turn_encoding(self):
        assert turns_to_point(0.0) == Vertex("v")
        assert turns_to_point(0.25) == EdgeInterior("l", 0.25)
        assert turns_to_point(1.25) == EdgeInterior("l", 0.25)
