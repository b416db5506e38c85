"""The condensation-based reachability oracle against one BFS per vertex.

``gamma`` condenses the graph into strongly connected components and reads
reachability, cycle membership and strong connectivity off bitsets; these
tests hold its answers to the per-vertex breadth-first closure
(``conftest.BfsClosure``) and, for points inside edges, to BFS over
discretized edges (``conftest.BruteGamma``).
"""

import random
import tracemalloc

import pytest

from conftest import BfsClosure, BruteGamma, random_scc_multigraph
from ditopo.core import EdgeInterior, Vertex
from ditopo.errors import InfiniteTraceSpace
from ditopo.graph import (
    DirectedGraph,
    GammaOracle,
    _COUNT_CAP,
    _tier_info,
    build_planner,
    gamma,
    is_strongly_connected_dspace,
    traces_between,
)
from ditopo.nathom import factorization_diagram

SUBDIVISIONS = 4


def _random_graphs():
    rng = random.Random(1812)
    graphs = []
    for nv in (1, 2, 3, 5, 8, 13, 30, 60, 120, 200, 300):
        for density in (1, 2):
            graphs.append(random_scc_multigraph(rng, nv, density * nv + rng.randrange(4)))
    return graphs


def _sample_points(rng, g, n):
    cells = [Vertex(v) for v in g.vertices]
    cells += [EdgeInterior(e.id, k / SUBDIVISIONS)
              for e in g.edges for k in range(1, SUBDIVISIONS)]
    return [rng.choice(cells) for _ in range(n)]


@pytest.fixture(scope="module")
def scc_graphs():
    return _random_graphs()


def test_generator_makes_many_components(scc_graphs):
    big = [g for g in scc_graphs if len(g.vertices) >= 120]
    assert all(len(gamma(g)._sccs) > 20 for g in big)
    assert any(len(c) > 1 for g in big for c in gamma(g)._sccs)
    assert any(e.src == e.dst for g in scc_graphs for e in g.edges)


def test_reaches_matches_bfs_closure(scc_graphs):
    rng = random.Random(3)
    for g in scc_graphs:
        oracle, ref = gamma(g), BfsClosure(g)
        vs = g.vertices
        pairs = ([(u, v) for u in vs for v in vs] if len(vs) <= 30
                 else [(rng.choice(vs), rng.choice(vs)) for _ in range(3000)])
        for u, v in pairs:
            assert oracle.reaches(u, v) == ref.reaches(u, v), (g, u, v)


def test_membership_matches_discretized_bfs(scc_graphs):
    rng = random.Random(4)
    for g in scc_graphs:
        oracle, brute = gamma(g), BruteGamma(g, SUBDIVISIONS)
        xs = _sample_points(rng, g, 20)
        ys = _sample_points(rng, g, 20)
        for x in xs:
            for y in ys:
                assert oracle.membership(x, y) == brute.reachable(x, y), (g, x, y)


def test_tier_facts_match_pairwise_sweeps(scc_graphs):
    for g in scc_graphs:
        oracle, ref = gamma(g), BfsClosure(g)
        for v in g.vertices:
            assert (v in oracle._cyclic) == ref.on_cycle(v), (g, v)
        strongly = ref.strongly_connected()
        assert is_strongly_connected_dspace(g) == strongly
        info = _tier_info(g, oracle)
        acyclic = not any(ref.on_cycle(v) for v in g.vertices)
        assert (info.acyclic, info.strongly_connected) == (acyclic, strongly)


def test_path_counts_match_on_dags():
    rng = random.Random(5)
    checked = 0
    for nv in (4, 10, 40, 150, 300):
        for _ in range(3):
            vertices = [f"v{i}" for i in range(nv)]
            edges = []
            for _ in range(2 * nv):
                a, b = sorted(rng.sample(range(nv), 2)) if nv > 1 else (0, 0)
                if a != b:
                    edges.append((f"e{len(edges)}", vertices[a], vertices[b]))
            g = DirectedGraph(vertices, edges)
            info = _tier_info(g, gamma(g))
            assert info.acyclic
            want = BfsClosure(g).path_counts(_COUNT_CAP)
            assert info.pair_counts == want
            assert info.multi_pairs == sorted(p for p, c in want.items() if c >= 2)
            checked += 1
    assert checked == 15


def test_large_sparse_graph():
    rng = random.Random(6)
    g = random_scc_multigraph(rng, 3000, 6000)
    oracle, ref = gamma(g), BfsClosure(g)
    sources = [rng.choice(g.vertices) for _ in range(40)]
    for u in sources:
        for v in rng.sample(g.vertices, 100):
            assert oracle.reaches(u, v) == ref.reaches(u, v)
        assert (u in oracle._cyclic) == ref.on_cycle(u)
    assert is_strongly_connected_dspace(g) is False


def test_deep_chain_needs_no_recursion():
    n = 5000
    vertices = [f"c{i}" for i in range(n)]
    g = DirectedGraph(vertices, [(f"s{i}", vertices[i], vertices[i + 1])
                                 for i in range(n - 1)])
    oracle = gamma(g)
    assert oracle.reaches("c0", f"c{n - 1}")
    assert not oracle.reaches(f"c{n - 1}", "c0")
    assert not oracle._cyclic and len(oracle._sccs) == n
    summary = traces_between(g, Vertex("c0"), Vertex(f"c{n - 1}"))
    assert summary.count == 1
    assert summary.representatives == (tuple(f"s{i}" for i in range(n - 1)),)
    looped = DirectedGraph(vertices, list(g.edges) + [("back", f"c{n - 1}", "c0")])
    assert is_strongly_connected_dspace(looped)


def test_oracle_is_built_once_per_graph():
    g = random_scc_multigraph(random.Random(7), 40, 80)
    oracle = gamma(g)
    assert gamma(g) is oracle
    planner = build_planner(DirectedGraph(["a", "b"], [("e", "a", "b")]))
    assert planner.space is gamma(planner.space.graph)
    fresh = GammaOracle(g)
    assert all(fresh.reaches(u, v) == oracle.reaches(u, v)
               for u in g.vertices for v in g.vertices)


def test_reaches_unknown_target_is_false():
    oracle = gamma(DirectedGraph(["a"], []))
    assert oracle.reaches("a", "a")
    assert not oracle.reaches("a", "zz")


# -- finite trace spaces honour the cutoff -----------------------------------

def _parallel_ladder(k):
    vertices = [f"j{i}" for i in range(k + 1)]
    edges = []
    for i in range(k):
        edges += [(f"a{i}", f"j{i}", f"j{i + 1}"), (f"b{i}", f"j{i}", f"j{i + 1}")]
    return DirectedGraph(vertices, edges)


def _ladder_class(k, n):
    bits = format(n, f"0{k}b")
    return tuple(("a" if bit == "0" else "b") + str(i) for i, bit in enumerate(bits))


def test_small_ladder_enumerates_every_class():
    g = _parallel_ladder(6)
    s = traces_between(g, Vertex("j0"), Vertex("j6"), cutoff=1000)
    assert s.count == 64
    assert s.representatives == tuple(_ladder_class(6, n) for n in range(64))


def test_huge_ladder_counts_exactly_and_stops_at_cutoff():
    k = 18
    g = _parallel_ladder(k)
    tracemalloc.start()
    try:
        s = traces_between(g, Vertex("j0"), Vertex(f"j{k}"), cutoff=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.count == 2 ** k and not s.infinite
    assert s.representatives == tuple(_ladder_class(k, n) for n in range(16))
    assert peak < 2 * 2 ** 20
    interior = traces_between(g, EdgeInterior("a0", 0.5), EdgeInterior(f"b{k - 1}", 0.5),
                              cutoff=3)
    assert interior.count == 2 ** (k - 2) and len(interior.representatives) == 3


def test_diagram_refuses_a_huge_ladder():
    g = _parallel_ladder(40)
    with pytest.raises(InfiniteTraceSpace, match="more than 4096"):
        factorization_diagram(g, [Vertex("j0"), Vertex("j40")])
