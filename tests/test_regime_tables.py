"""Graph planners as regime tables, against the closure planners they
replaced (``conftest.closure_*``).

On every probe pair of the corpus and of every connected graph with at
most 6 cells, the table planner of ``ditc``'s tier and the three-patch
planner must claim the same patch as their closure oracle and build the
same section JSON; pairs outside the relation must get no table entry.
The probes cover every cell pair, every same-edge order, and pairs inside
edges that sit just inside and just outside the 1e-9 tolerance band.
"""

import gc
import random

import pytest

from conftest import (
    all_small_graphs,
    cell_pair_probes,
    closure_build_planner,
    closure_circle_planner,
    closure_interval_planner,
    closure_loop_planner,
    closure_three_patch_planner,
    closure_torus_planner,
)
from ditopo.core import EdgeInterior, Vertex
from ditopo.errors import InvalidPoint, Unreachable
from ditopo.graph import (
    CellPlanner,
    build_planner,
    circle_planner,
    cycle_graph,
    interval_planner,
    loop_planner,
    three_patch_planner,
)
from ditopo.product import torus_planner


def band_probes(g):
    """Pairs inside one edge whose parameters differ by 5e-10 (inside the
    tolerance band) or 2e-9 (outside it), in both orders."""
    for e in g.edges:
        for d in (5e-10, -5e-10, 2e-9, -2e-9):
            yield EdgeInterior(e.id, 0.5), EdgeInterior(e.id, 0.5 + d)


def probes(g):
    return list(cell_pair_probes(g)) + list(band_probes(g))


def claimed(planner, x, y):
    return [p.id for p in planner.claiming_patches(x, y)]


def assert_same_planner(table, closure, pairs, skip_json=()):
    """Same claim and same section JSON on every pair in the relation, and
    no entry for any pair outside it."""
    oracle = table.space
    outside = []
    for x, y in pairs:
        if not oracle.membership(x, y):
            assert table.entry(x, y) is None
            assert claimed(table, x, y) == []
            outside.append((x, y))
            continue
        ids = claimed(table, x, y)
        assert ids == claimed(closure, x, y), (x, y)
        assert len(ids) == 1
        if (x, y) not in skip_json:
            assert table.plan(x, y).to_json() == closure.plan(x, y).to_json(), (x, y)
    for x, y in outside:
        assert table.regime(x, y) not in table.table


def small_connected_graphs():
    return [g for g in all_small_graphs(6) if g.is_connected()]


def test_corpus_tier_planners_match_the_closures(corpus):
    for g in corpus:
        assert_same_planner(build_planner(g), closure_build_planner(g), probes(g))


def test_corpus_three_patch_planners_match_the_closures(corpus):
    for g in corpus:
        assert_same_planner(three_patch_planner(g), closure_three_patch_planner(g), probes(g))


def test_small_graph_planners_match_the_closures():
    graphs = small_connected_graphs()
    assert len(graphs) == 153
    for g in graphs:
        pairs = probes(g)
        assert_same_planner(build_planner(g), closure_build_planner(g), pairs)
        assert_same_planner(three_patch_planner(g), closure_three_patch_planner(g), pairs)


def test_every_tier_is_covered(corpus):
    kinds = {tuple(build_planner(g).patch_ids()) for g in corpus + small_connected_graphs()}
    assert kinds == {("all",), ("conflicts", "rest"), ("diagonal", "offdiagonal"),
                     ("F1", "F2", "F3")}


@pytest.mark.parametrize("table, closure", [
    (interval_planner, closure_interval_planner),
    (circle_planner, closure_circle_planner),
    (loop_planner, closure_loop_planner),
])
def test_builtin_planners_match_the_closures(table, closure):
    planner, oracle_planner = table(), closure()
    g = planner.space.graph
    # a vertex to itself: the table gives the constant path at the vertex,
    # the closure a zero-length step at the end of an edge
    diagonal = [(Vertex(v), Vertex(v)) for v in g.vertices] if table is not loop_planner else []
    assert_same_planner(planner, oracle_planner, probes(g), skip_json=diagonal)
    for x, y in diagonal:
        path, old = planner.plan(x, y), oracle_planner.plan(x, y)
        assert path.steps == () and path.basepoint == x
        assert old.length() == 0.0 and old.start() == x == old.end()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_planners_match_the_closure(n):
    planner, _ = torus_planner(n)
    closure = closure_torus_planner(n)
    loop = loop_planner().space.graph
    points = [x for pair in probes(loop) for x in pair]
    rng = random.Random(n)
    pairs = [(tuple(rng.choice(points) for _ in range(n)),
              tuple(rng.choice(points) for _ in range(n))) for _ in range(400)]
    assert_same_planner(planner, closure, pairs)
    # the product's regime is the tuple of its factors' regimes
    x, y = pairs[0]
    assert planner.regime(x, y) == tuple(
        f.regime(a, b) for f, a, b in zip([loop_planner()] * n, x, y))


def test_product_grade_is_one_lookup_per_regime():
    planner, _ = torus_planner(2)
    x = (EdgeInterior("l", 0.25), Vertex("v"))
    y = (EdgeInterior("l", 0.5), Vertex("v"))
    assert claimed(planner, x, y) == ["G1"]
    assert len(planner.table) == 1
    # another pair of the same regime adds no entry and claims the same patch
    assert claimed(planner, (EdgeInterior("l", 0.1), Vertex("v")),
                   (EdgeInterior("l", 0.9), Vertex("v"))) == ["G1"]
    assert len(planner.table) == 1


def test_a_regime_is_filled_once():
    planner = build_planner(cycle_graph(3))
    assert isinstance(planner, CellPlanner) and planner.table == {}
    first = planner.entry(EdgeInterior("e0", 0.1), Vertex("v2"))
    for t in (0.2, 0.3):
        assert planner.entry(EdgeInterior("e0", t), Vertex("v2")) is first
        planner.plan(EdgeInterior("e0", t), Vertex("v2"))
    assert list(planner.table.values()) == [first]


def test_a_dropped_planner_is_freed_without_the_cycle_collector():
    g = cycle_graph(3)
    gc.collect()
    gc.disable()
    try:
        planner = three_patch_planner(g)
        planner.plan(EdgeInterior("e0", 0.5), Vertex("v2"))
        del planner
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_same_edge_orders_are_distinct_regimes():
    planner = three_patch_planner(cycle_graph(2))
    a = EdgeInterior("e0", 0.5)
    keys = {planner.regime(a, EdgeInterior("e0", 0.5 + d))
            for d in (2e-9, 5e-10, 0.0, -5e-10, -2e-9)}
    # d > tol, 0 <= d <= tol (two probes), -tol <= d < 0, d < -tol
    assert len(keys) == 4
    forward = planner.plan(a, EdgeInterior("e0", 0.5 + 5e-10))
    around = planner.plan(a, EdgeInterior("e0", 0.5 - 5e-10))
    assert [s.edge for s in forward.steps] == ["e0"]
    assert [s.edge for s in around.steps] == ["e0", "e1", "e0"]


def test_section_of_another_patch_is_refused():
    planner = build_planner(cycle_graph(3))
    off = planner.patch("offdiagonal")
    with pytest.raises(Unreachable):
        off.section(Vertex("v0"), Vertex("v0"))


def test_unknown_points_are_invalid():
    planner = build_planner(cycle_graph(3))
    with pytest.raises(InvalidPoint):
        planner.claim(Vertex("nowhere"), Vertex("v0"))
    with pytest.raises(InvalidPoint):
        planner.plan(Vertex("v0"), EdgeInterior("nowhere", 0.5))
