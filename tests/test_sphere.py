"""Cube-boundary reachability against the lattice search, and the square planner."""

import random
from collections import deque

import pytest

import ditopo.sphere
from conftest import lattice_sphere_gamma, sphere_probe_pairs
from ditopo.core import check_patch_continuity, check_section, points_equal
from ditopo.errors import DimensionMismatch, InvalidPoint, Unreachable
from ditopo.sphere import (
    SphereGamma,
    check_sphere_point,
    sample_boundary_point,
    sphere_ditc,
    sphere_gamma,
    sphere_planner_1,
)


class TestPointValidation:
    def test_boundary_required(self):
        with pytest.raises(InvalidPoint):
            check_sphere_point((0.5, 0.5), 1)
        assert check_sphere_point((0.5, 1.0), 1) == (0.5, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sphere_gamma(2, (0.0, 0.5), (1.0, 0.5))

    def test_near_boundary_snaps(self):
        assert check_sphere_point((1e-12, 0.5), 1) == (0.0, 0.5)


class TestReachability:
    def test_reflexive(self):
        assert sphere_gamma(1, (0.0, 0.5), (0.0, 0.5))
        assert sphere_gamma(2, (0.0, 0.3, 0.4), (0.0, 0.3, 0.4))

    def test_blocked_across_the_open_square(self):
        assert not sphere_gamma(1, (0.0, 0.5), (1.0, 0.6))

    def test_route_over_the_top_face(self):
        assert sphere_gamma(1, (0.0, 0.0), (0.5, 1.0))

    def test_monotone_necessity(self):
        rng = random.Random(0)
        for n in (1, 2, 3):
            for _ in range(200):
                x = sample_boundary_point(n, rng)
                y = sample_boundary_point(n, rng)
                if sphere_gamma(n, x, y):
                    assert all(b >= a - 1e-9 for a, b in zip(x, y))

    def test_shared_face_sufficiency(self):
        rng = random.Random(1)
        for n in (1, 2, 3):
            for _ in range(200):
                x = list(sample_boundary_point(n, rng))
                y = [min(c + rng.uniform(0, 1 - c), 1.0) for c in x]
                i = next(k for k, c in enumerate(x) if c in (0.0, 1.0))
                y[i] = x[i]
                assert sphere_gamma(n, tuple(x), tuple(y))

    def test_grid_stability_16_vs_32(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            for x, y in sphere_probe_pairs(n, rng, 200):
                for grid in (16, 32):
                    want = lattice_sphere_gamma(n, x, y, grid)
                    assert sphere_gamma(n, x, y, grid) == want, (n, x, y, grid)

    def test_off_lattice_pair_keeps_the_lattice_answer(self):
        # (0, 0.01) quantizes to the corner (0, 0), so the lattice search and
        # sphere_gamma both say True; the exact relation says False
        x, y = (0.0, 0.01), (1.0, 0.5)
        for grid in (16, 32):
            assert sphere_gamma(1, x, y, grid) == lattice_sphere_gamma(1, x, y, grid) is True
        assert SphereGamma(1).membership(x, y) is False

    def test_queries_leave_module_state_unchanged(self):
        def sizes():
            return {name: len(value) for name, value in vars(ditopo.sphere).items()
                    if not name.startswith("__")
                    and isinstance(value, (dict, list, set, deque, bytearray))}

        before = sizes()
        rng = random.Random(8)
        for i in range(1000):
            n = 1 + i % 3
            sphere_gamma(n, sample_boundary_point(n, rng), sample_boundary_point(n, rng))
        assert sizes() == before

    def test_grid_must_refine_the_quantization(self):
        with pytest.raises(ValueError):
            sphere_gamma(1, (0, 0), (1, 1), grid=20)

    def test_closed_form_matches_lattice_on_aligned_points(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            exact = SphereGamma(n)
            for _ in range(400):
                x = tuple(round(c * 16) / 16 for c in sample_boundary_point(n, rng))
                y = tuple(round(c * 16) / 16 for c in sample_boundary_point(n, rng))
                assert exact.membership(x, y) == lattice_sphere_gamma(n, x, y, 16), (x, y)

    def test_closed_form_matches_the_square_planner_arcs(self):
        rng = random.Random(9)
        exact, planner = SphereGamma(1), sphere_planner_1()
        for _ in range(1000):
            x, y = sample_boundary_point(1, rng), sample_boundary_point(1, rng)
            if rng.random() < 0.5:
                x = tuple(round(c * 4) / 4 for c in x)
                y = tuple(round(c * 4) / 4 for c in y)
            claimed = bool(planner.claiming_patches(x, y))
            assert exact.membership(x, y) == claimed, (x, y)


class TestDitcConstant:
    def test_known_value_for_all_dimensions(self):
        for n in (1, 2, 3, 5):
            rep = sphere_ditc(n)
            assert rep.to_json() == {
                "lower": 2, "upper": 2, "exact": True, "reason": "KnownBuiltin"}


class TestSquarePlanner:
    def test_extreme_pair_goes_lower_right(self):
        planner = sphere_planner_1()
        claiming = planner.claiming_patches((0.0, 0.0), (1.0, 1.0))
        assert [p.id for p in claiming] == ["lower_right"]
        path = sphere_planner_1().plan((0.0, 0.0), (1.0, 1.0))
        assert (1.0, 0.0) in path.points

    def test_single_face_run(self):
        path = sphere_planner_1().plan((0.0, 0.5), (0.0, 0.9))
        assert path.points == [(0.0, 0.5), (0.0, 0.9)]

    def test_decreasing_pair_unreachable(self):
        with pytest.raises(Unreachable):
            sphere_planner_1().plan((1.0, 0.5), (0.5, 1.0))

    def test_section_check_clean(self):
        planner = sphere_planner_1()
        report = check_section(planner, planner.space, samples=1000, seed=4)
        assert report.total_violations == 0

    def test_continuity_within_bounds(self):
        planner = sphere_planner_1()
        for pid in planner.patch_ids():
            rep = check_patch_continuity(planner, pid, pair_samples=80,
                                         perturbation=0.01, seed=6)
            assert rep.max_ratio <= rep.lipschitz_bound + 1e-6

    def test_paths_evaluate_monotonically(self):
        path = sphere_planner_1().plan((0.2, 0.0), (1.0, 0.7))
        prev = path.evaluate(0.0)
        for i in range(1, 33):
            cur = path.evaluate(i / 32)
            assert all(c >= p - 1e-9 for p, c in zip(prev, cur))
            prev = cur
        assert points_equal(path.evaluate(0.0), (0.2, 0.0))
        assert points_equal(path.evaluate(1.0), (1.0, 0.7))
