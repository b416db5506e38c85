"""Section and continuity testers, including negative controls, and the
path-contraction deformation built from a global section."""

import random

import pytest

from ditopo.core import (
    DiPath,
    EdgeInterior,
    Patch,
    Patchwork,
    Step,
    Vertex,
    check_patch_continuity,
    check_section,
    concatenate,
    contraction_homotopy,
    points_equal,
    sample_pair,
)
from ditopo.errors import NoGlobalSection, OutOfRange, PatchNotFound
from ditopo.graph import (
    build_planner,
    directed_interval,
    directed_loop,
    gamma,
    interval_planner,
    loop_planner,
    parallel_edges,
)
from ditopo.product import torus_planner


class TestCheckSection:
    def test_interval_planner_clean(self):
        planner = interval_planner()
        report = check_section(planner, planner.space, samples=1000, seed=0)
        assert report.total_violations == 0

    def test_loop_planner_clean(self):
        planner = loop_planner()
        report = check_section(planner, planner.space, samples=1000, seed=1)
        assert report.total_violations == 0

    def test_swapped_endpoints_all_flagged(self):
        planner = interval_planner()
        good = planner.patches[0]
        swapped = Patchwork([Patch("all", good.membership,
                                   lambda x, y: good.section(y, x),
                                   good.lipschitz_bound)],
                            regular=True, space=planner.space)
        report = check_section(swapped, planner.space, samples=200, seed=2)
        # pairs with x == y still check out; everything else must fail
        assert report.total_violations > 100
        assert not report.membership_violations

    def test_gappy_membership_flagged(self):
        planner = interval_planner()
        good = planner.patches[0]
        gappy = Patchwork([Patch("all",
                                 lambda x, y: good.membership(x, y) and not (
                                     hasattr(x, "t") and x.t > 0.5),
                                 good.section, 1.0)],
                          regular=True, space=planner.space)
        report = check_section(gappy, planner.space, samples=300, seed=3)
        assert len(report.membership_violations) > 0


class _OnePair:
    """A relation sampler that always draws the same pair."""

    def __init__(self, x, y):
        self.pair = (x, y)

    def sample_pair(self, rng):
        return self.pair


class TestSectionEndpoints:
    """The endpoint test keeps ``points_equal``'s tolerance of 1e-9 on edge
    parameters and ``point_at``'s rule that a parameter within 1e-9 of an
    edge's end is that end's vertex."""

    @pytest.mark.parametrize("x, start, y, end, violation", [
        (EdgeInterior("e", 0.2), 0.2, EdgeInterior("e", 0.6), 0.6 + 2e-9, True),
        (EdgeInterior("e", 0.2), 0.2, EdgeInterior("e", 0.6), 0.6 - 2e-9, True),
        (EdgeInterior("e", 0.2), 0.2, EdgeInterior("e", 0.6), 0.6 + 5e-10, False),
        (EdgeInterior("e", 0.2), 0.2, EdgeInterior("e", 0.6), 0.6 - 5e-10, False),
        (EdgeInterior("e", 0.2), 0.2 + 2e-9, EdgeInterior("e", 0.6), 0.6, True),
        (EdgeInterior("e", 0.2), 0.2 - 5e-10, EdgeInterior("e", 0.6), 0.6, False),
        (Vertex("0"), 5e-10, Vertex("1"), 1.0 - 5e-10, False),
        (Vertex("0"), 2e-9, Vertex("1"), 1.0, True),
        (Vertex("0"), 0.0, Vertex("1"), 1.0 - 2e-9, True),
        (Vertex("0"), 0.0, EdgeInterior("e", 1.0 - 5e-10), 1.0 - 5e-10, True),
        (Vertex("1"), 1.0, Vertex("1"), 1.0, False),
    ])
    def test_tolerance_and_vertex_rule(self, x, start, y, end, violation):
        g = directed_interval()
        path = DiPath(g, [Step("e", start, end)])
        planner = Patchwork([Patch("all", lambda a, b: True, lambda a, b: path, 1.0)])
        report = check_section(planner, _OnePair(x, y), samples=3)
        assert report.total_violations == len(report.endpoint_violations)
        assert len(report.endpoint_violations) == (3 if violation else 0)
        assert violation != (points_equal(path.start(), x) and points_equal(path.end(), y))
        if violation:
            assert report.endpoint_violations[0]["got"] == (repr(path.start()), repr(path.end()))

    def test_constant_and_product_paths(self):
        planner = loop_planner()
        x = EdgeInterior("l", 0.3)
        report = check_section(planner, _OnePair(x, x), samples=2)
        assert report.total_violations == 0
        torus, _ = torus_planner(2)
        pair = ((x, Vertex("v")), (EdgeInterior("l", 0.3 + 5e-10), Vertex("v")))
        assert check_section(torus, _OnePair(*pair), samples=2).total_violations == 0


class TestCheckContinuity:
    def test_interval_linear_section_is_1_lipschitz(self):
        planner = interval_planner()
        report = check_patch_continuity(planner, "all", pair_samples=300,
                                        perturbation=0.01, seed=0)
        assert report.pairs_used > 100
        assert report.max_ratio <= 1.0 + 1e-6
        assert report.ok

    def test_loop_offdiagonal_within_declared_bound(self):
        planner = loop_planner()
        report = check_patch_continuity(planner, "offdiagonal", pair_samples=300,
                                        perturbation=0.01, seed=1)
        assert report.pairs_used > 100
        assert report.max_ratio <= 2.0 + 1e-6
        assert report.ok

    def test_seeded_jump_is_reported(self):
        # same planner, but the section routes the long way around whenever
        # the source angle sits in an odd 0.1-band: genuine discontinuities
        # at every band boundary inside the patch
        planner = loop_planner()
        g = planner.space.graph
        off = planner.patch("offdiagonal")

        def jumpy(x, y):
            base = off.section(x, y)
            if hasattr(x, "t") and int(x.t * 10) % 2 == 1:
                extra = DiPath(g, [Step("l", x.t, 1.0), Step("l", 0.0, 1.0),
                                   Step("l", 0.0, x.t)])
                return concatenate(extra, base)
            return base

        broken = Patchwork([planner.patch("diagonal"),
                            Patch("offdiagonal", off.membership, jumpy, 2.0)],
                           regular=True, space=planner.space)
        report = check_patch_continuity(broken, "offdiagonal", pair_samples=400,
                                        perturbation=0.01, seed=2)
        assert report.violations
        assert report.max_ratio > 2.0 + 1e-6

    def test_vacuous_certificate_is_flagged(self):
        # the conflicts patch holds only the vertex pair (b, e), which the
        # pair sampler practically never draws, so no pair gets checked
        planner = build_planner(parallel_edges(3))
        report = check_patch_continuity(planner, "conflicts", pair_samples=60, seed=0)
        assert report.pairs_used == 0
        assert report.ok and report.vacuous
        assert report.to_json()["vacuous"] is True
        used = check_patch_continuity(planner, "rest", pair_samples=60, seed=0)
        assert used.pairs_used > 0 and not used.vacuous
        assert used.to_json()["vacuous"] is False

    def test_unknown_patch(self):
        planner = interval_planner()
        with pytest.raises(PatchNotFound):
            check_patch_continuity(planner, "nope", 10, 0.01, 0)


class TestSamplePair:
    def test_pairs_come_from_the_relation(self):
        oracle = gamma(directed_interval())
        rng = random.Random(5)
        for _ in range(200):
            x, y = sample_pair(oracle, rng)
            assert oracle.membership(x, y)


class TestContractionHomotopy:
    def _u(self):
        g = directed_interval()
        return DiPath.from_steps(g, [("e", 0.1, 0.9)])

    def test_t_one_returns_u_pointwise(self):
        planner = interval_planner()
        u = self._u()
        v = contraction_homotopy(planner, u, 1.0)
        for i in range(65):
            s = i / 64
            assert points_equal(u.evaluate(s), v.evaluate(s))

    def test_t_zero_is_the_section_path(self):
        planner = interval_planner()
        u = self._u()
        v = contraction_homotopy(planner, u, 0.0)
        section = planner.patches[0].section(u.start(), u.end())
        for i in range(65):
            s = i / 64
            assert points_equal(v.evaluate(s), section.evaluate(s))

    def test_endpoints_fixed_for_all_t(self):
        planner = interval_planner()
        u = self._u()
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            v = contraction_homotopy(planner, u, t)
            assert points_equal(v.start(), u.start())
            assert points_equal(v.end(), u.end())

    def test_multi_patch_planner_is_rejected(self):
        planner = loop_planner()
        g = directed_loop()
        u = DiPath.from_steps(g, [("l", 0.2, 0.8)])
        with pytest.raises(NoGlobalSection):
            contraction_homotopy(planner, u, 0.5)

    def test_parameter_range(self):
        planner = interval_planner()
        with pytest.raises(OutOfRange):
            contraction_homotopy(planner, self._u(), 1.5)
