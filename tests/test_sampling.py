"""Pairs drawn straight from the reachability relation.

Every oracle's ``sample_pair`` must follow the law of the rejection loop
(``conftest.rejection_sample_pair``): two independent ``sample_point``
draws conditioned on ``membership``.  These tests hold each drawn pair to
``membership``, and the frequencies of cell pairs (graphs, tori) and facet
pairs (the cube boundary) to the analytic weights and to the rejection
loop, under a chi-square test at level 1e-4.  All draws use fixed seeds.
"""

import math
import random
from collections import Counter

import pytest

import ditopo.core
import ditopo.graph
import ditopo.product
import ditopo.sphere
from conftest import BfsClosure, rejection_sample_pair
from ditopo.core import EdgeInterior, Vertex, sample_pair, select_bit
from ditopo.graph import DirectedGraph, build_planner, ditc, gamma
from ditopo.product import ProductGamma, torus_planner
from ditopo.sphere import SphereGamma

# Wilson-Hilferty upper 1e-4 quantile of the standard normal, for the
# chi-square thresholds below.
Z_1E4 = 3.719
MIN_EXPECTED = 5.0


def chi2_threshold(df: int) -> float:
    """The 1 - 1e-4 quantile of chi-square with df degrees of freedom
    (Wilson-Hilferty approximation)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + Z_1E4 * math.sqrt(a)) ** 3


def zigzag(k: int) -> DirectedGraph:
    """a1 -> b1 <- a2 -> b2 <- ... <- ak -> bk: each vertex reaches at most
    two others, so a uniform pair is reachable with probability O(1/V)."""
    vertices = [f"{c}{i}" for i in range(1, k + 1) for c in "ab"]
    edges = [(f"f{i}", f"a{i}", f"b{i}") for i in range(1, k + 1)]
    edges += [(f"g{i}", f"a{i + 1}", f"b{i}") for i in range(1, k)]
    return DirectedGraph(vertices, edges)


def chain(n: int) -> DirectedGraph:
    return DirectedGraph([f"v{i}" for i in range(n)],
                         [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])


# ---------------------------------------------------------------------------
# Categories and their analytic weights
# ---------------------------------------------------------------------------

def graph_category(x, y) -> tuple:
    """(x cell, y cell), plus the t order when both lie on one edge."""
    cx = x.vertex if isinstance(x, Vertex) else x.edge
    cy = y.vertex if isinstance(y, Vertex) else y.edge
    if isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) and cx == cy:
        return cx, cy, x.t <= y.t
    return cx, cy, None


def graph_weights(g: DirectedGraph) -> dict:
    """Category -> weight in half-pairs, from BFS closures.

    A cell pair (a, b) weighs 2 when the exit vertex of a reaches the entry
    vertex of b.  On a shared edge that weight splits evenly by t order; an
    edge whose destination does not reach its source keeps only x.t <= y.t,
    half the parameter square, weight 1.
    """
    bfs = BfsClosure(g)
    cells = [(v, v, v) for v in g.vertices] + [(e.id, e.src, e.dst) for e in g.edges]
    edge_ids = {e.id for e in g.edges}
    weights = {}
    for a, _, exit_a in cells:
        for b, entry_b, _ in cells:
            if a == b and a in edge_ids:
                if bfs.reaches(exit_a, entry_b):
                    weights[(a, b, True)] = weights[(a, b, False)] = 1
                else:
                    weights[(a, b, True)] = 1
            elif bfs.reaches(exit_a, entry_b):
                weights[(a, b, None)] = 2
    return weights


def product_category(categories):
    return lambda x, y: tuple(c(a, b) for c, a, b in zip(categories, x, y))


def product_weights(factor_weights) -> dict:
    weights = {(): 1}
    for fw in factor_weights:
        weights = {key + (k,): w * v for key, w in weights.items() for k, v in fw.items()}
    return weights


def facet(p) -> tuple:
    """(axis, side) of the one facet a drawn boundary point lies on."""
    (i,) = [i for i, c in enumerate(p) if c in (0.0, 1.0)]
    return i, p[i]


def sphere_category(x, y) -> tuple:
    return facet(x), facet(y)


def sphere_weights(n: int) -> dict:
    """Same facet and side: weight 1 (2d cases); x_i = 0, y_j = 1, i != j:
    weight 2 (d n cases); d = n + 1."""
    d = n + 1
    weights = {((i, s), (i, s)): 1 for i in range(d) for s in (0.0, 1.0)}
    weights.update({((i, 0.0), (j, 1.0)): 2 for i in range(d) for j in range(d) if i != j})
    return weights


def _bins(weights: dict, draws: int) -> dict:
    """Category -> bin: categories expected fewer than MIN_EXPECTED times
    share one pooled bin."""
    total = sum(weights.values())
    return {k: (k if draws * w / total >= MIN_EXPECTED else "pooled")
            for k, w in weights.items()}


def _binned(counts: Counter, bins: dict) -> Counter:
    out = Counter()
    for k, c in counts.items():
        assert k in bins, f"drawn category {k} has weight 0"
        out[bins[k]] += c
    return out


def goodness_of_fit(counts: Counter, weights: dict, draws: int) -> tuple:
    """(chi-square statistic, threshold) of the counts against the weights."""
    bins = _bins(weights, draws)
    total = sum(weights.values())
    expected = Counter()
    for k, w in weights.items():
        expected[bins[k]] += draws * w / total
    observed = _binned(counts, bins)
    stat = sum((observed[b] - e) ** 2 / e for b, e in expected.items())
    return stat, chi2_threshold(max(len(expected) - 1, 1))


def homogeneity(counts1: Counter, counts2: Counter, weights: dict, draws: int) -> tuple:
    """(chi-square statistic, threshold) for two samples of equal size
    coming from one law, binned as for ``goodness_of_fit``."""
    bins = _bins(weights, draws)
    o1, o2 = _binned(counts1, bins), _binned(counts2, bins)
    keys = set(o1) | set(o2)
    stat = sum((o1[b] - o2[b]) ** 2 / (o1[b] + o2[b]) for b in keys)
    return stat, chi2_threshold(max(len(set(bins.values())) - 1, 1))


def _counts(draw, oracle, category, draws: int, seed: int) -> Counter:
    rng = random.Random(seed)
    return Counter(category(*draw(oracle, rng)) for _ in range(draws))


# ---------------------------------------------------------------------------
# Every pair is in the relation
# ---------------------------------------------------------------------------

def _assert_pairs_in_relation(oracle, draws: int, seed: int):
    rng = random.Random(seed)
    for _ in range(draws):
        x, y = sample_pair(oracle, rng)
        assert oracle.membership(x, y), (x, y)


class TestPairsInRelation:
    def test_every_corpus_graph(self, corpus):
        for i, g in enumerate(corpus):
            _assert_pairs_in_relation(gamma(g), 200, seed=i)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tori(self, n):
        planner, _ = torus_planner(n)
        _assert_pairs_in_relation(planner.space, 500, seed=n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_spheres(self, n):
        _assert_pairs_in_relation(SphereGamma(n), 2000, seed=n)

    @pytest.mark.parametrize("k", [1, 2, 50])
    def test_zigzag_with_rare_pairs(self, k):
        _assert_pairs_in_relation(gamma(zigzag(k)), 500, seed=k)

    def test_no_membership_call(self, corpus):
        def refuse(*_):
            raise AssertionError("sample_pair called membership")
        oracles = [gamma(DirectedGraph.from_json(g.to_json())) for g in corpus[:10]]
        oracles += [SphereGamma(2), torus_planner(2)[0].space]
        for oracle in oracles:
            for o in getattr(oracle, "factors", ()) + (oracle,):
                o.membership = refuse
            rng = random.Random(3)
            for _ in range(100):
                sample_pair(oracle, rng)

    def test_select_bit_against_a_scan(self):
        rng = random.Random(11)
        for width in (1, 2, 5, 64, 65, 300):
            for _ in range(20):
                bits = rng.getrandbits(width) | 1 << rng.randrange(width)
                ones = [i for i in range(width) if bits >> i & 1]
                assert [select_bit(bits, k) for k in range(len(ones))] == ones


# ---------------------------------------------------------------------------
# The law: analytic weights and the rejection loop
# ---------------------------------------------------------------------------

def _assert_law(oracle, category, weights, draws: int, seed: int):
    new = _counts(sample_pair, oracle, category, draws, seed)
    old = _counts(rejection_sample_pair, oracle, category, draws, seed + 1)
    for counts in (new, old):
        stat, threshold = goodness_of_fit(counts, weights, draws)
        assert stat < threshold, (stat, threshold)
    stat, threshold = homogeneity(new, old, weights, draws)
    assert stat < threshold, (stat, threshold)


class TestLaw:
    def test_corpus_graph_cell_pairs(self, corpus):
        for i, g in enumerate(corpus[:12]):
            _assert_law(gamma(g), graph_category, graph_weights(g), 4000, seed=100 + i)

    @pytest.mark.parametrize("make", [lambda: zigzag(4), lambda: chain(5),
                                      ditopo.graph.directed_circle,
                                      lambda: ditopo.graph.parallel_edges(3)])
    def test_small_graph_cell_pairs(self, make):
        g = make()
        _assert_law(gamma(g), graph_category, graph_weights(g), 4000, seed=7)

    @pytest.mark.parametrize("n", [1, 2])
    def test_torus_cell_pairs(self, n):
        planner, _ = torus_planner(n)
        oracle = planner.space
        weights = product_weights([graph_weights(f.graph) for f in oracle.factors])
        category = product_category([graph_category] * n)
        _assert_law(oracle, category, weights, 4000, seed=20 + n)

    def test_product_of_unlike_factors(self, corpus):
        oracle = ProductGamma([gamma(corpus[3]), gamma(ditopo.graph.directed_interval())])
        weights = product_weights([graph_weights(f.graph) for f in oracle.factors])
        _assert_law(oracle, product_category([graph_category] * 2), weights, 4000, seed=5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_facet_pairs(self, n):
        _assert_law(SphereGamma(n), sphere_category, sphere_weights(n), 4000, seed=30 + n)

    def test_thresholds_catch_a_skewed_law(self):
        """The test has power: on the directed interval, a law that gives
        x.t <= y.t on the edge a whole pair's weight is refused."""
        g = ditopo.graph.directed_interval()
        weights = graph_weights(g)
        skewed = dict(weights)
        skewed[("e", "e", True)] = 2
        counts = _counts(sample_pair, gamma(g), graph_category, 4000, seed=1)
        stat, threshold = goodness_of_fit(counts, skewed, 4000)
        assert stat > threshold


# ---------------------------------------------------------------------------
# Determinism, laziness and no global state
# ---------------------------------------------------------------------------

def _draws(oracle, seed: int, count: int = 50) -> list:
    rng = random.Random(seed)
    return [repr(sample_pair(oracle, rng)) for _ in range(count)]


class TestStateless:
    def test_same_seed_same_pairs(self, corpus):
        for make in (lambda: gamma(DirectedGraph.from_json(corpus[7].to_json())),
                     lambda: torus_planner(3)[0].space,
                     lambda: SphereGamma(3)):
            assert _draws(make(), 4) == _draws(make(), 4)
            oracle = make()
            assert _draws(oracle, 4) == _draws(oracle, 4)

    def test_core_sample_pair_is_the_oracles(self, corpus):
        oracle = gamma(corpus[9])
        assert sample_pair(oracle, random.Random(2)) == oracle.sample_pair(random.Random(2))

    def test_queries_build_no_sampling_table(self, corpus):
        for g in corpus[:20]:
            g = DirectedGraph.from_json(g.to_json())
            oracle = gamma(g)
            ditc(g)
            planner = build_planner(g)
            rng = random.Random(0)
            for _ in range(20):
                x, y = oracle.sample_point(rng), oracle.sample_point(rng)
                if oracle.membership(x, y):
                    planner.plan(x, y)
            assert oracle._pair_table is None
            sample_pair(oracle, rng)
            assert oracle._pair_table is not None

    def test_no_module_level_container_grows(self, corpus):
        modules = (ditopo.core, ditopo.graph, ditopo.product, ditopo.sphere)

        def sizes():
            return {(m.__name__, name): len(value)
                    for m in modules for name, value in vars(m).items()
                    if not name.startswith("__") and isinstance(value, (list, dict, set))}

        before = sizes()
        oracles = [gamma(DirectedGraph.from_json(g.to_json())) for g in corpus[:30]]
        oracles += [torus_planner(2)[0].space, SphereGamma(4), gamma(zigzag(30))]
        for oracle in oracles:
            _draws(oracle, 1, 100)
        assert sizes() == before
