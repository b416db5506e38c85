"""The cumulative-span walk against the per-point linear scans it replaced.

Every path type evaluates through one cumulative-span table and one walk
(``core.span_table`` and ``core.locate``).  These tests hold ``evaluate``,
``evaluate_many``, ``length``, ``subpath`` and the sampled sup distance to
the scans kept in ``conftest`` (exact equality, since both add the same
floats in the same order), the exact sup distance to sampled ones, and the
lazily filled BFS tables of the graph metric to a BFS over subdivided
edges.
"""

import random

import pytest

from conftest import (
    SubdividedMetric,
    random_scc_multigraph,
    scan_evaluate,
    scan_length,
    scan_subpath,
    scan_sup_distance,
)
from ditopo.core import (
    PARAM_TOL,
    DiPath,
    EdgeInterior,
    Step,
    Vertex,
    path_sup_distance,
    sample_pair,
)
from ditopo.errors import OutOfRange
from ditopo.graph import DirectedGraph, build_planner, cycle_graph, directed_loop
from ditopo.product import ProductPath, torus_planner
from ditopo.sphere import SpherePath, sphere_planner_1

EDGE_FRACTIONS = [-PARAM_TOL, 0.0, 1.0, 1.0 + PARAM_TOL]


def _strong_multigraph(rng: random.Random, nv: int) -> DirectedGraph:
    """A directed Hamiltonian cycle plus random chords, loops and parallel
    edges, so that random walks never get stuck."""
    vertices = [f"v{i}" for i in range(nv)]
    edges = [(f"c{i}", vertices[i], vertices[(i + 1) % nv]) for i in range(nv)]
    for k in range(rng.randint(0, 2 * nv)):
        roll = rng.random()
        if roll < 0.2:
            v = rng.choice(vertices)
            edges.append((f"x{k}", v, v))
        elif roll < 0.4:
            _, a, b = rng.choice(edges)
            edges.append((f"x{k}", a, b))
        else:
            edges.append((f"x{k}", rng.choice(vertices), rng.choice(vertices)))
    return DirectedGraph(vertices, edges)


def random_dipath(rng: random.Random, g: DirectedGraph, nsteps: int) -> DiPath:
    """A valid forward walk of about `nsteps` steps: full edges (one shared
    Step object per edge, so step objects repeat), edges split mid-way,
    zero-span steps at vertices and inside edges, partial first and last
    steps."""
    full = {e.id: Step(e.id, 0.0, 1.0) for e in g.edges}
    v = rng.choice(g.vertices)
    steps = []
    while len(steps) < nsteps:
        e = rng.choice(g.out_edges(v))
        roll = rng.random()
        if not steps and roll < 0.2:
            steps.append(Step(e.id, rng.uniform(0.05, 0.95), 1.0))
        elif roll < 0.1:
            steps.append(Step(e.id, 0.0, 0.0))
            continue
        elif roll < 0.3:
            t = rng.choice((0.25, 0.5, rng.uniform(0.01, 0.99)))
            steps.append(Step(e.id, 0.0, t))
            if rng.random() < 0.5:
                steps.append(Step(e.id, t, t))
            steps.append(Step(e.id, t, 1.0))
        else:
            steps.append(full[e.id])
        v = e.dst
    if rng.random() < 0.2:
        last = steps[-1]
        steps[-1] = Step(last.edge, last.t_from, rng.uniform(last.t_from, last.t_to))
    path = DiPath(g, steps)
    path.validate()
    return path


def _paths():
    rng = random.Random(20260810)
    paths = []
    for nsteps in (1, 1, 2, 3, 5, 8, 13, 21, 40, 80, 150, 300):
        for _ in range(3):
            g = _strong_multigraph(rng, rng.randint(1, 12))
            paths.append(random_dipath(rng, g, nsteps))
    loop = directed_loop()
    lap = DiPath.from_steps(loop, [("l", 0.0, 1.0)])
    paths += [
        DiPath(lap.graph, lap.steps * 3),
        DiPath.constant(loop, Vertex("v")),
        DiPath.constant(loop, EdgeInterior("l", 0.3)),
        DiPath.from_steps(loop, [("l", 0.0, 0.0), ("l", 0.0, 0.0)]),
        DiPath.from_steps(cycle_graph(3), [("e0", 0.5, 0.5)]),
    ]
    return paths


PATHS = _paths()


def _fractions(path: DiPath, rng: random.Random) -> list:
    """The edge fractions, a uniform grid, random points, and every step
    breakpoint as a fraction of the total (ties between segments)."""
    fractions = EDGE_FRACTIONS + [i / 63 for i in range(64)]
    fractions += [rng.random() for _ in range(16)]
    total = scan_length(path)
    if total > 0.0:
        acc = 0.0
        for st in path.steps:
            acc += st.span
            fractions.append(min(acc / total, 1.0))
    return sorted(fractions)


class TestDiPathWalk:
    @pytest.mark.parametrize("k", range(len(PATHS)))
    def test_walk_equals_linear_scan(self, k):
        path = PATHS[k]
        rng = random.Random(k)
        fractions = _fractions(path, rng)
        expected = [scan_evaluate(path, s) for s in fractions]
        assert path.length() == scan_length(path)
        assert [path.evaluate(s) for s in fractions] == expected
        assert path.evaluate_many(fractions) == expected
        assert DiPath(path.graph, path.steps, path.basepoint).evaluate_many(fractions) == expected

    @pytest.mark.parametrize("k", range(len(PATHS)))
    def test_subpath_equals_linear_scan(self, k):
        path = PATHS[k]
        rng = random.Random(1000 + k)
        fractions = [s for s in _fractions(path, rng) if 0.0 <= s <= 1.0]
        pairs = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5 + PARAM_TOL / 2)]
        pairs += [tuple(sorted(rng.sample(fractions, 2))) for _ in range(12)]
        for s0, s1 in pairs:
            got, want = path.subpath(s0, s1), scan_subpath(path, s0, s1)
            assert (got.steps, got.basepoint) == (want.steps, want.basepoint), (s0, s1)

    def test_fractions_must_ascend(self):
        path = PATHS[-5]
        with pytest.raises(ValueError):
            path.evaluate_many([0.5, 0.25])

    def test_fractions_out_of_range_are_rejected(self):
        with pytest.raises(OutOfRange):
            PATHS[0].evaluate_many([0.0, 1.0 + 2 * PARAM_TOL])


@pytest.mark.parametrize("path", [
    DiPath.from_steps(cycle_graph(3), [("e0", 0.25, 1.0), ("e1", 0.0, 0.5)]),
    SpherePath([(0.0, 0.25), (0.0, 1.0), (0.5, 1.0)]),
], ids=["DiPath", "SpherePath"])
def test_both_path_types_reject_fractions_off_range(path):
    for s in (1.5, -0.1, 1.0 + 2 * PARAM_TOL):
        with pytest.raises(OutOfRange):
            path.evaluate(s)
    with pytest.raises(OutOfRange):
        path.evaluate_many([0.0, 1.5])
    assert path.evaluate(1.0 + PARAM_TOL / 2) == path.end()
    assert path.evaluate(-PARAM_TOL / 2) == path.start()


class TestSphereAndProductWalk:
    def _sphere_paths(self):
        rng = random.Random(7)
        planner = sphere_planner_1()
        paths = [SpherePath([(0.0, 0.3)]),
                 SpherePath([(0.0, 0.0), (0.0, 0.0), (0.0, 0.5), (0.0, 0.5),
                             (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)])]
        for _ in range(40):
            x, y = sample_pair(planner.space, rng)
            paths.append(planner.plan(x, y))
        return paths

    def test_sphere_walk_equals_linear_scan(self):
        rng = random.Random(8)
        fractions = sorted(EDGE_FRACTIONS + [i / 63 for i in range(64)]
                           + [rng.random() for _ in range(16)] + [0.5, 0.5])
        for path in self._sphere_paths():
            expected = [scan_evaluate(path, s) for s in fractions]
            assert [path.evaluate(s) for s in fractions] == expected
            assert path.evaluate_many(fractions) == expected

    def test_product_walk_zips_its_components(self):
        rng = random.Random(9)
        planner, _ = torus_planner(3)
        fractions = [i / 63 for i in range(64)]
        for _ in range(30):
            x, y = sample_pair(planner.space, rng)
            path = planner.plan(x, y)
            assert isinstance(path, ProductPath)
            assert path.evaluate_many(fractions) == [scan_evaluate(path, s) for s in fractions]


def _section_pairs(planner, rng: random.Random, per_patch: int):
    """(p, q) section pairs: each pair's section against the section of a
    perturbed pair in the same patch, as the continuity certifier draws
    them, and against the section of an unrelated pair."""
    oracle = planner.space
    others = [planner.plan(*sample_pair(oracle, rng)) for _ in range(4)]
    for patch in planner.patches:
        used = 0
        for _ in range(20 * per_patch):
            if used == per_patch:
                break
            x, y = sample_pair(oracle, rng)
            if not patch.membership(x, y):
                continue
            p = patch.section(x, y)
            yield p, rng.choice(others)
            eps = min(0.01, oracle.distance(x, y) / 8.0)
            if eps <= 0.0:
                continue
            x2, y2 = oracle.perturb_pair((x, y), eps, rng)
            if oracle.membership(x2, y2) and patch.membership(x2, y2):
                yield p, patch.section(x2, y2)
                used += 1


def _walk_sup(p, q, distance, samples: int) -> float:
    """The max of the distance over evenly spaced fractions, each path
    walked once by ``evaluate_many``: the sampled sup the exact one replaced."""
    fractions = [i / (samples - 1) for i in range(samples)]
    worst = 0.0
    for a, b in zip(p.evaluate_many(fractions), q.evaluate_many(fractions)):
        worst = max(worst, distance(a, b))
    return worst


def _length(path) -> float:
    """Total length; a pair's distance moves by at most the sum of the two
    lengths per unit of fraction."""
    if isinstance(path, ProductPath):
        return sum(_length(c) for c in path.components)
    if isinstance(path, SpherePath):
        return sum(sum(abs(c - d) for c, d in zip(a, b))
                   for a, b in zip(path.points, path.points[1:]))
    return scan_length(path)


def test_sup_distance_equals_per_fraction_scan(corpus):
    """The walk agrees with the per-fraction scan at 64 and 5 fractions, and
    the exact sup is never below a sampled one, nor above the 1025-fraction
    walk by more than the distance can move in half a grid step.

    The 1025-fraction walk costs about 5 ms a pair, so it runs on every
    torus and square pair and on every twelfth graph pair."""
    rng = random.Random(1812)
    planners = [build_planner(g) for g in corpus]
    planners += [torus_planner(n)[0] for n in (1, 2, 3)] + [sphere_planner_1()]
    compared = dense_compared = 0
    for planner in planners:
        oracle = planner.space
        distance = oracle.distance
        for p, q in _section_pairs(planner, rng, per_patch=3):
            scan = scan_sup_distance(p, q, distance)
            assert repr(_walk_sup(p, q, distance, 64)) == repr(scan)
            assert repr(_walk_sup(p, q, distance, 5)) \
                == repr(scan_sup_distance(p, q, distance, 5))
            exact = path_sup_distance(p, q, oracle)
            assert scan - 1e-12 <= exact, (p, q)
            if not isinstance(p, DiPath) or compared % 12 == 0:
                dense = _walk_sup(p, q, distance, 1025)
                slack = (_length(p) + _length(q)) / 2048
                assert dense - 1e-12 <= exact <= dense + slack + 1e-12, (p, q)
                dense_compared += 1
            compared += 1
    assert compared > 500 and dense_compared > 150


def test_square_sup_peaks_at_the_corner_breakpoint():
    # the two arcs from (0, 0) to (1, 1) are L1 distance 4s apart up to
    # s = 1/2, where they reach the opposite corners; 64 samples read 1.968
    oracle = sphere_planner_1().space
    up = SpherePath([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    right = SpherePath([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert oracle.sup_fractions(up, right) == [0.0, 0.5, 1.0]
    assert path_sup_distance(up, right, oracle) == 2.0


def test_torus_sup_is_exact_through_its_factors():
    # a lap of each loop against the base point: each factor is min(s, 1 - s)
    # from v, so the sum peaks at 1 at s = 1/2, a kink of both factors
    planner, _ = torus_planner(2)
    loop = planner.space.factors[0].graph
    lap = DiPath.from_steps(loop, [("l", 0.0, 1.0)])
    home = DiPath.constant(loop, Vertex("v"))
    p, q = ProductPath([lap, lap]), ProductPath([home, home])
    assert planner.space.sup_fractions(p, q) == [0.0, 0.5, 1.0]
    assert path_sup_distance(p, q, planner.space) == 1.0


class TestLazyDistances:
    def test_one_query_fills_few_sources(self):
        n = 3000
        vertices = [f"v{i}" for i in range(n)]
        g = DirectedGraph(vertices, [(f"e{i}", vertices[i], vertices[i + 1])
                                     for i in range(n - 1)])
        a, b = EdgeInterior("e10", 0.25), EdgeInterior("e2500", 0.5)
        # on a chain the hop count between vi and vj is |i - j|
        assert g.distance(a, b) == 0.75 + (2500 - 11) + 0.5
        assert 1 <= len(g._vertex_dist) <= 4
        for source, table in g._vertex_dist.items():
            i = int(source[1:])
            assert table == {f"v{j}": abs(i - j) for j in range(n)}

    def test_point_distances_equal_subdivided_bfs(self, corpus):
        rng = random.Random(5)
        graphs = corpus[:40] + [random_scc_multigraph(rng, 12, 20),
                                DirectedGraph(["a", "b", "c"], [("e", "a", "b")])]
        for g in graphs:
            ref = SubdividedMetric(g)
            points = [Vertex(v) for v in g.vertices]
            points += [EdgeInterior(e.id, k / 32) for e in g.edges for k in (1, 8, 16, 31)]
            for x in rng.sample(points, min(len(points), 12)):
                for y in points:
                    assert g.distance(x, y) == ref.distance(x, y), (x, y)
            assert len(g._vertex_dist) <= len(g.vertices)
