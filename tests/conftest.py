"""Shared fixtures: the random graph corpus and independent oracles.

The brute-force oracles here are deliberately written against different
state spaces than the library (discretized edge chains, program-step
automata) so they can certify the library's answers rather than echo them.
"""

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest

from ditopo.core import (
    PARAM_TOL,
    DiPath,
    EdgeInterior,
    Patch,
    Patchwork,
    Reason,
    Step,
    Vertex,
    concatenate,
    points_equal,
)
from ditopo.errors import InvalidPath, InvalidPoint, NotIso, OutOfRange, Unreachable
from ditopo.graph import (
    DirectedGraph,
    _cycle_order,
    _fixed_paths,
    directed_circle,
    directed_interval,
    directed_loop,
    ditc,
    gamma,
    path_from_class,
    traces_between,
)
from ditopo.product import ProductGamma, ProductPath
from ditopo.sphere import SpherePath, check_sphere_point, sample_boundary_point

CORPUS_SEED = 20260810
CORPUS_SIZE = 100


def random_connected_multigraph(rng: random.Random,
                                max_vertices: int = 8,
                                max_edges: int = 14) -> DirectedGraph:
    """Connected via a random spanning tree, then random extra edges
    (loops and parallels allowed)."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):
        parent = rng.randrange(i)
        if rng.random() < 0.5:
            edges.append((f"e{len(edges)}", f"v{parent}", f"v{i}"))
        else:
            edges.append((f"e{len(edges)}", f"v{i}", f"v{parent}"))
    for _ in range(rng.randint(0, max_edges - len(edges))):
        edges.append((f"e{len(edges)}", rng.choice(vertices), rng.choice(vertices)))
    return DirectedGraph(vertices, edges)


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_connected_multigraph(rng) for _ in range(CORPUS_SIZE)]


# ---------------------------------------------------------------------------
# Independent oracle 1: reachability by BFS over discretized edges
# ---------------------------------------------------------------------------

class BruteGamma:
    """Each edge becomes a chain of `subdivisions` forward arcs; reachability
    is plain BFS over the chain nodes."""

    def __init__(self, g: DirectedGraph, subdivisions: int = 32):
        self.g = g
        self.s = subdivisions
        self.succ: dict = {("v", v): [] for v in g.vertices}
        for e in g.edges:
            prev = ("v", e.src)
            for k in range(1, self.s):
                node = ("e", e.id, k)
                self.succ.setdefault(node, [])
                self.succ[prev].append(node)
                prev = node
            self.succ[prev].append(("v", e.dst))
        self._cache: dict = {}

    def _node(self, p):
        if isinstance(p, Vertex):
            return ("v", p.vertex)
        k = round(p.t * self.s)
        assert 0 < k < self.s, "pick grid-aligned interior parameters"
        return ("e", p.edge, k)

    def reachable(self, x, y) -> bool:
        a, b = self._node(x), self._node(y)
        if a not in self._cache:
            seen = {a}
            queue = deque([a])
            while queue:
                cur = queue.popleft()
                for nxt in self.succ[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            self._cache[a] = seen
        return b in self._cache[a]


def cell_pair_probes(g: DirectedGraph, subdivisions: int = 32):
    """Representative point pairs covering every cell pair and same-edge
    regime, grid-aligned for the brute-force oracle."""
    s = subdivisions
    points = [Vertex(v) for v in g.vertices]
    quarter, half, three = 8 / s, 16 / s, 24 / s
    for x in points + [EdgeInterior(e.id, half) for e in g.edges]:
        for y in points + [EdgeInterior(f.id, half) for f in g.edges]:
            yield x, y
    for e in g.edges:
        yield EdgeInterior(e.id, quarter), EdgeInterior(e.id, three)
        yield EdgeInterior(e.id, three), EdgeInterior(e.id, quarter)
        yield EdgeInterior(e.id, half), EdgeInterior(e.id, half)
        for v in g.vertices:
            yield Vertex(v), EdgeInterior(e.id, quarter)
            yield EdgeInterior(e.id, three), Vertex(v)


def all_small_graphs(max_cells: int = 5):
    """Every directed multigraph with at most `max_cells` vertices + edges."""
    graphs = []
    for nv in range(1, max_cells + 1):
        vertices = [f"v{i}" for i in range(nv)]
        pair_types = [(a, b) for a in vertices for b in vertices]
        for ne in range(0, max_cells - nv + 1):
            for combo in itertools.combinations_with_replacement(pair_types, ne):
                edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(combo)]
                graphs.append(DirectedGraph(vertices, edges))
    return graphs


# ---------------------------------------------------------------------------
# Independent oracle 1b: vertex reachability by one BFS per source
# ---------------------------------------------------------------------------

class BfsClosure:
    """Forward closure of each vertex by breadth-first search, computed on
    first use; the per-vertex construction the library's reachability
    oracle once used, kept here to check the condensation that replaced it.
    Tier facts are read off pairwise sweeps, as they once were."""

    def __init__(self, g: DirectedGraph):
        self.g = g
        self._reach: dict = {}

    def closure(self, source: str) -> frozenset:
        if source not in self._reach:
            seen = {source}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for e in self.g.out_edges(u):
                    if e.dst not in seen:
                        seen.add(e.dst)
                        queue.append(e.dst)
            self._reach[source] = frozenset(seen)
        return self._reach[source]

    def reaches(self, u: str, v: str) -> bool:
        return v in self.closure(u)

    def on_cycle(self, v: str) -> bool:
        return any(self.reaches(e.dst, v) for e in self.g.out_edges(v))

    def strongly_connected(self) -> bool:
        vs = self.g.vertices
        return all(self.reaches(u, v) for u in vs for v in vs)

    def path_counts(self, cap: int) -> dict:
        """Saturating edge-path counts per reachable pair (DAG only), by
        Kahn's topological order and a sweep over every vertex per target."""
        g = self.g
        order = []
        indeg = {v: len(g.in_edges(v)) for v in g.vertices}
        queue = deque(v for v in g.vertices if indeg[v] == 0)
        while queue:
            u = queue.popleft()
            order.append(u)
            for e in g.out_edges(u):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    queue.append(e.dst)
        counts: dict = {}
        for target in g.vertices:
            for u in reversed(order):
                if not self.reaches(u, target):
                    continue
                total = 1 if u == target else 0
                for e in g.out_edges(u):
                    total += counts.get((e.dst, target), 0)
                counts[(u, target)] = min(total, cap)
        return counts


def random_scc_multigraph(rng: random.Random, nv: int, ne: int) -> DirectedGraph:
    """Vertices split into random blocks; each block gets a directed cycle
    (so it is one strongly connected component) unless it is a singleton,
    then random edges run forward between blocks, with loops, parallel
    edges and a few backward edges that merge components."""
    vertices = [f"v{i}" for i in range(nv)]
    rng.shuffle(vertices)
    blocks, i = [], 0
    while i < nv:
        size = min(nv - i, rng.choice((1, 1, 1, 2, 3, 5)))
        blocks.append(vertices[i:i + size])
        i += size
    block_of = {v: b for b, block in enumerate(blocks) for v in block}
    edges = []

    def add(a, b):
        edges.append((f"e{len(edges)}", a, b))

    for block in blocks:
        if len(block) > 1:
            for a, b in zip(block, block[1:] + block[:1]):
                add(a, b)
    while len(edges) < ne:
        roll = rng.random()
        a, b = rng.choice(vertices), rng.choice(vertices)
        if roll < 0.05:
            add(a, a)
        elif roll < 0.12 and edges:
            _, src, dst = rng.choice(edges)
            add(src, dst)
        elif roll < 0.14 or block_of[a] < block_of[b]:
            add(a, b)
        elif block_of[b] < block_of[a]:
            add(b, a)
    return DirectedGraph(sorted(vertices, key=lambda v: int(v[1:])), edges)


# ---------------------------------------------------------------------------
# Independent oracle 1c: the undirected metric on subdivided edges
# ---------------------------------------------------------------------------

class SubdividedMetric:
    """Each edge becomes a chain of `subdivisions` undirected links; the
    distance between grid-aligned points is the BFS hop count over the
    chain nodes divided by `subdivisions` (exact for powers of two)."""

    def __init__(self, g: DirectedGraph, subdivisions: int = 32):
        self.s = subdivisions
        self.adj: dict = {("v", v): [] for v in g.vertices}
        for e in g.edges:
            chain = [("v", e.src)] + [("e", e.id, k) for k in range(1, self.s)] + [("v", e.dst)]
            for a, b in zip(chain, chain[1:]):
                self.adj.setdefault(a, []).append(b)
                self.adj.setdefault(b, []).append(a)
        self._hops: dict = {}

    def _node(self, p):
        if isinstance(p, Vertex):
            return ("v", p.vertex)
        k = round(p.t * self.s)
        assert 0 < k < self.s and k == p.t * self.s, "pick grid-aligned interior parameters"
        return ("e", p.edge, k)

    def distance(self, x, y) -> float:
        a, b = self._node(x), self._node(y)
        if a not in self._hops:
            hops = {a: 0}
            queue = deque([a])
            while queue:
                cur = queue.popleft()
                for nxt in self.adj[cur]:
                    if nxt not in hops:
                        hops[nxt] = hops[cur] + 1
                        queue.append(nxt)
            self._hops[a] = hops
        hops = self._hops[a].get(b)
        return math.inf if hops is None else hops / self.s


# ---------------------------------------------------------------------------
# Independent oracle 1e: pairs of the relation by rejection sampling
# ---------------------------------------------------------------------------

def rejection_sample_pair(oracle, rng: random.Random, max_tries: int = 100000):
    """Draw two independent ``sample_point``s and retry until the second is
    reachable from the first: the sampler the certifiers used before each
    oracle drew pairs straight from its relation.  Its pairs are
    distributed as two points conditioned on ``membership``, the law every
    ``sample_pair`` must follow."""
    for _ in range(max_tries):
        x = oracle.sample_point(rng)
        y = oracle.sample_point(rng)
        if oracle.membership(x, y):
            return x, y
    raise RuntimeError("rejection sampling failed to hit the relation")


# ---------------------------------------------------------------------------
# Independent oracle 1f: graph planners as lists of closures
# ---------------------------------------------------------------------------
#
# The planners as they were before each became a table keyed by regime:
# every patch's membership asks the oracle (or compares points) again, and
# every section is rebuilt from the pair alone, by trace enumeration or by
# concatenating fixed pieces.  The tables must claim the same patch and
# build the same path on every pair.

def _run_to_end(g, p):
    return DiPath(g, [Step(p.edge, p.t, 1.0)])


def _run_from_start(g, p):
    return DiPath(g, [Step(p.edge, 0.0, p.t)])


def _closure_unique_section(g):
    def section(x, y):
        summary = traces_between(g, x, y, cutoff=2)
        if summary.count != 1:
            raise RuntimeError(f"pair ({x!r},{y!r}) does not have a unique trace class")
        return path_from_class(g, x, y, summary.representatives[0])
    return section


def _closure_fixed_path(g):
    sequence = _fixed_paths(g)

    def path(u, v):
        return path_from_class(g, Vertex(u), Vertex(v), sequence(u, v))
    return path


def closure_three_patch_planner(g):
    """Vertex pairs, mixed pairs, interior pairs."""
    oracle = gamma(g)
    fixed = _closure_fixed_path(g)

    def member_vv(x, y):
        return isinstance(x, Vertex) and isinstance(y, Vertex) and oracle.membership(x, y)

    def member_mixed(x, y):
        mixed = isinstance(x, Vertex) != isinstance(y, Vertex)
        return mixed and oracle.membership(x, y)

    def member_ii(x, y):
        both = isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior)
        return both and oracle.membership(x, y)

    def section_vv(x, y):
        return fixed(x.vertex, y.vertex)

    def section_mixed(x, y):
        if isinstance(x, EdgeInterior):
            e = g.edge(x.edge)
            return concatenate(_run_to_end(g, x), fixed(e.dst, y.vertex))
        f = g.edge(y.edge)
        return concatenate(fixed(x.vertex, f.src), _run_from_start(g, y))

    def section_ii(x, y):
        if x.edge == y.edge and x.t <= y.t:
            return DiPath(g, [Step(x.edge, x.t, y.t)])
        e, f = g.edge(x.edge), g.edge(y.edge)
        middle = fixed(e.dst, f.src)
        return concatenate(concatenate(_run_to_end(g, x), middle), _run_from_start(g, y))

    patches = [
        Patch("F1", member_vv, section_vv, lipschitz_bound=2.0),
        Patch("F2", member_mixed, section_mixed, lipschitz_bound=2.0),
        Patch("F3", member_ii, section_ii, lipschitz_bound=2.0),
    ]
    return Patchwork(patches, regular=True, space=oracle)


def closure_cycle_planner(g):
    """Diagonal pairs get constant paths; the rest run forward."""
    oracle = gamma(g)
    order = _cycle_order(g)
    circumference = float(len(order))
    edge_index = {e.id: i for i, e in enumerate(order)}
    vertex_pos = {e.src: float(i) for i, e in enumerate(order)}

    def position(p):
        if isinstance(p, Vertex):
            return vertex_pos[p.vertex]
        return edge_index[p.edge] + p.t

    def member_diag(x, y):
        return points_equal(x, y)

    def member_off(x, y):
        return not points_equal(x, y)

    def section_diag(x, y):
        return DiPath.constant(g, x)

    def section_off(x, y):
        gap = (position(y) - position(x)) % circumference
        if gap <= 0.0:
            gap = circumference
        if isinstance(x, Vertex):
            idx, t = edge_index[g.out_edges(x.vertex)[0].id], 0.0
        else:
            idx, t = edge_index[x.edge], x.t
        steps = []
        left = gap
        while left > PARAM_TOL:
            take = min(1.0 - t, left)
            steps.append(Step(order[idx].id, t, t + take))
            left -= take
            t += take
            if t >= 1.0 - PARAM_TOL:
                idx = (idx + 1) % len(order)
                t = 0.0
        return DiPath(g, steps)

    patches = [
        Patch("diagonal", member_diag, section_diag, lipschitz_bound=1.0),
        Patch("offdiagonal", member_off, section_off, lipschitz_bound=2.0),
    ]
    return Patchwork(patches, regular=True, space=oracle)


def closure_unique_planner(g):
    oracle = gamma(g)
    patches = [Patch("all", oracle.membership, _closure_unique_section(g), lipschitz_bound=2.0)]
    return Patchwork(patches, regular=True, space=oracle)


def closure_conflict_planner(g):
    """The conflict tier's planner; its conflict pairs are the vertex pairs
    with two or more paths, counted by ``BfsClosure``."""
    oracle = gamma(g)
    fixed = _closure_fixed_path(g)
    conflicts = frozenset(p for p, c in BfsClosure(g).path_counts(2).items() if c >= 2)

    def member_conflict(x, y):
        return (isinstance(x, Vertex) and isinstance(y, Vertex)
                and (x.vertex, y.vertex) in conflicts)

    def member_rest(x, y):
        return oracle.membership(x, y) and not member_conflict(x, y)

    def section_conflict(x, y):
        return fixed(x.vertex, y.vertex)

    patches = [
        Patch("conflicts", member_conflict, section_conflict, lipschitz_bound=2.0),
        Patch("rest", member_rest, _closure_unique_section(g), lipschitz_bound=2.0),
    ]
    return Patchwork(patches, regular=True, space=oracle)


def closure_constant_planner(g):
    oracle = gamma(g)

    def section(x, y):
        return DiPath.constant(g, x)
    return Patchwork([Patch("all", oracle.membership, section, 1.0)],
                     regular=True, space=oracle)


def closure_build_planner(g):
    """The closure planner of the tier ``ditc`` picks for a connected graph."""
    report = ditc(g)
    if report.reason is Reason.UNIQUE_TRACES:
        return closure_unique_planner(g)
    if report.reason is Reason.FINITE_CONFLICT_TWO_PATCH:
        return closure_conflict_planner(g)
    if report.reason is Reason.STRONGLY_CONNECTED_FORMULA and report.upper == 1:
        return closure_constant_planner(g)
    if report.reason is Reason.STRONGLY_CONNECTED_FORMULA and report.upper == 2:
        return closure_cycle_planner(g)
    return closure_three_patch_planner(g)


def closure_interval_planner():
    """The global linear section on the directed interval."""
    g = directed_interval()
    oracle = gamma(g)

    def coord(p):
        if isinstance(p, Vertex):
            return 0.0 if p.vertex == "0" else 1.0
        return p.t

    def section(x, y):
        return DiPath(g, [Step("e", coord(x), coord(y))])

    return Patchwork([Patch("all", oracle.membership, section, 1.0)],
                     regular=True, space=oracle)


def closure_circle_planner():
    """Pairs inside the top interval, then pairs inside the bottom interval
    minus the three shared pairs."""
    g = directed_circle()
    oracle = gamma(g)

    def on_arc(p, edge):
        if isinstance(p, Vertex):
            return True
        return p.edge == edge

    def coord(p):
        if isinstance(p, Vertex):
            return 0.0 if p.vertex == "b" else 1.0
        return p.t

    def member_top(x, y):
        return on_arc(x, "top") and on_arc(y, "top") and coord(x) <= coord(y)

    def member_bot(x, y):
        both_vertices = isinstance(x, Vertex) and isinstance(y, Vertex)
        return (on_arc(x, "bot") and on_arc(y, "bot") and coord(x) <= coord(y)
                and not both_vertices)

    def section_on(edge):
        def section(x, y):
            return DiPath(g, [Step(edge, coord(x), coord(y))])
        return section

    patches = [
        Patch("top", member_top, section_on("top"), 1.0),
        Patch("bot", member_bot, section_on("bot"), 1.0),
    ]
    return Patchwork(patches, regular=True, space=oracle)


def closure_loop_planner():
    return closure_cycle_planner(directed_loop())


def closure_product_planner(factors):
    """The graded product: each claim computes the grade from scratch by
    asking every factor patch in turn."""
    oracles = [f[0] for f in factors]
    planners = [f[1] for f in factors]
    top = sum(len(p.patches) - 1 for p in planners)

    def factor_index(i, a, b):
        for k, patch in enumerate(planners[i].patches):
            if patch.membership(a, b):
                return k
        return -1

    def grade(x, y):
        total = 0
        for i, (a, b) in enumerate(zip(x, y)):
            k = factor_index(i, a, b)
            if k < 0:
                return -1
            total += k
        return total

    def make_patch(j):
        def member(x, y):
            if len(x) != len(oracles) or len(y) != len(oracles):
                return False
            return grade(x, y) == j

        def section(x, y):
            parts = []
            for i, (a, b) in enumerate(zip(x, y)):
                k = factor_index(i, a, b)
                if k < 0:
                    raise Unreachable(f"coordinate {i} pair ({a!r},{b!r}) is unreachable")
                parts.append(planners[i].patches[k].section(a, b))
            return ProductPath(parts)

        bound = max(p.lipschitz_bound for planner in planners for p in planner.patches)
        return Patch(f"G{j}", member, section, bound)

    return Patchwork([make_patch(j) for j in range(top + 1)], regular=True,
                     space=ProductGamma(oracles))


def closure_torus_planner(n):
    return closure_product_planner([(p.space, p) for p in
                                    (closure_loop_planner() for _ in range(n))])


# ---------------------------------------------------------------------------
# Independent oracle 1d: path evaluation by a linear scan of the steps
# ---------------------------------------------------------------------------
#
# The per-call scans the library's paths once ran for every point, kept to
# check the cumulative-span walk that replaced them.  Spans are added left
# to right in a plain loop, as the walk's table is.  One deliberate change:
# the last step is recognised by its index, where the library compared the
# step object by identity and so stopped early on a path that repeats a
# step object (``concatenate(a, a)``).

def scan_length(path: DiPath) -> float:
    total = 0.0
    for st in path.steps:
        total += st.span
    return total


def _scan_dipath(path: DiPath, s: float):
    if not (-PARAM_TOL <= s <= 1.0 + PARAM_TOL):
        raise OutOfRange(f"path parameter {s} outside [0,1]")
    s = min(max(s, 0.0), 1.0)
    total = scan_length(path)
    if total <= 0.0:
        return path.start()
    target = s * total
    acc = 0.0
    last = len(path.steps) - 1
    for i, st in enumerate(path.steps):
        if target <= acc + st.span or i == last:
            if st.span <= 0.0:
                t = st.t_from
            else:
                t = st.t_from + min(max(target - acc, 0.0), st.span)
            return path.graph.point_at(st.edge, t)
        acc += st.span


def _scan_sphere(path: SpherePath, s: float):
    pts = path.points
    lengths = [sum(abs(c - d) for c, d in zip(p, q)) for p, q in zip(pts, pts[1:])]
    total = 0.0
    for seg in lengths:
        total += seg
    if total <= 0.0:
        return pts[0]
    target = min(max(s, 0.0), 1.0) * total
    acc = 0.0
    for i, seg in enumerate(lengths):
        if target <= acc + seg or i == len(lengths) - 1:
            f = 0.0 if seg <= 0.0 else min(max(target - acc, 0.0), seg) / seg
            return tuple(c + f * (d - c) for c, d in zip(pts[i], pts[i + 1]))
        acc += seg


def scan_evaluate(path, s: float):
    """The point at fraction s of a DiPath, SpherePath or ProductPath."""
    if isinstance(path, DiPath):
        return _scan_dipath(path, s)
    if isinstance(path, SpherePath):
        return _scan_sphere(path, s)
    if isinstance(path, ProductPath):
        return tuple(scan_evaluate(c, s) for c in path.components)
    raise TypeError(f"no scan for {type(path).__name__}")


def scan_subpath(path: DiPath, s0: float, s1: float) -> DiPath:
    if not (0.0 <= s0 <= s1 <= 1.0 + PARAM_TOL):
        raise OutOfRange(f"subpath fractions ({s0}, {s1}) outside 0 <= s0 <= s1 <= 1")
    total = scan_length(path)
    if total <= 0.0 or abs(s1 - s0) <= PARAM_TOL:
        return DiPath.constant(path.graph, _scan_dipath(path, s0))
    lo, hi = s0 * total, s1 * total
    out = []
    acc = 0.0
    for st in path.steps:
        a, b = acc, acc + st.span
        acc = b
        if b <= lo or a >= hi:
            continue
        t_from = st.t_from + max(lo - a, 0.0)
        t_to = st.t_from + min(hi - a, st.span)
        if t_to > t_from:
            out.append(Step(st.edge, t_from, t_to))
    if not out:
        return DiPath.constant(path.graph, _scan_dipath(path, s0))
    return DiPath(path.graph, out)


def scan_sup_distance(p, q, distance, samples: int = 64) -> float:
    """Max of the point distance over the sample fractions, one scan each."""
    worst = 0.0
    for i in range(samples):
        s = i / (samples - 1)
        worst = max(worst, distance(scan_evaluate(p, s), scan_evaluate(q, s)))
    return worst


def pointwise_validate(path: DiPath) -> None:
    """``DiPath.validate`` as it was: each junction builds both points with
    ``point_at`` and compares them with ``points_equal``."""
    if not path.steps:
        if not isinstance(path.basepoint, Vertex):
            raise InvalidPath("step-free paths must sit at a vertex")
        if path.basepoint.vertex not in path.graph.vertex_set:
            raise InvalidPath(f"unknown vertex {path.basepoint.vertex!r}")
        return
    for s in path.steps:
        path.graph.edge(s.edge)  # raises on unknown edge
        if not (-PARAM_TOL <= s.t_from <= s.t_to <= 1.0 + PARAM_TOL):
            raise InvalidPath(f"step {s} is not a forward traversal inside [0,1]")
    for prev, nxt in zip(path.steps, path.steps[1:]):
        p = path.graph.point_at(prev.edge, prev.t_to)
        q = path.graph.point_at(nxt.edge, nxt.t_from)
        if not points_equal(p, q):
            raise InvalidPath(f"steps {prev} and {nxt} are not incident ({p} vs {q})")


# ---------------------------------------------------------------------------
# The CLI parser as it was built before each request built only its own
# command: every subparser, eagerly
# ---------------------------------------------------------------------------

def eager_cli_parser():
    from ditopo.cli import __doc__ as description
    from ditopo.cli import _Parser, positive_float, positive_int

    top = _Parser(prog="ditopo", description=description)
    top.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", parents=[], help="directed graph operations")
    gsub = g.add_subparsers(dest="graph_command", required=True)
    p = gsub.add_parser("ditc", help="directed complexity report")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit the graph as DOT instead")
    p = gsub.add_parser("plan", help="plan a path between two points")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True, help="point, e.g. v:b or e:top:0.5")
    p.add_argument("--to", dest="dst", required=True)
    p = gsub.add_parser("gamma", help="reachability membership")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    t = sub.add_parser("torus", help="directed torus operations")
    tsub = t.add_subparsers(dest="torus_command", required=True)
    p = tsub.add_parser("plan", help="plan on the n-torus")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--from", dest="src", required=True, help="angles in turns, e.g. 0.25,0.5")
    p.add_argument("--to", dest="dst", required=True)

    v = sub.add_parser("pv", help="two-process PV programs")
    vsub = v.add_subparsers(dest="pv_command", required=True)
    p = vsub.add_parser("schedule", help="schedule between two positions")
    p.add_argument("program", help='e.g. "Pa.Va.Pb.Vb|Pa.Va.Pb.Vb"')
    p.add_argument("--from", dest="src", required=True, help="x1,x2 in step units")
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--resolution", type=positive_int, default=8)
    p.add_argument("--svg", help="also write an SVG rendering to this file")
    p = vsub.add_parser("regions", help="forbidden rectangles")
    p.add_argument("program")
    p.add_argument("--svg", help="write an SVG rendering to this file")

    s = sub.add_parser("sphere", help="directed sphere boundaries")
    ssub = s.add_subparsers(dest="sphere_command", required=True)
    p = ssub.add_parser("reach", help="boundary-monotone reachability")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--from", dest="src", required=True, help="comma-separated coordinates")
    p.add_argument("--to", dest="dst", required=True)

    n = sub.add_parser("nathom", help="natural homology over trace diagrams")
    nsub = n.add_subparsers(dest="nathom_command", required=True)
    p = nsub.add_parser("build", help="build the sampled trace diagram")
    p.add_argument("file")
    p.add_argument("--samples", required=True, help="comma-separated points, e.g. v:b,v:e")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--degree", type=positive_int, default=1)
    p = nsub.add_parser("point-check", help="bisimulation with the constant-Z diagram")
    p.add_argument("file")
    p.add_argument("--samples", required=True)

    c = sub.add_parser("check", help="planner certification")
    csub = c.add_subparsers(dest="check_command", required=True)
    p = csub.add_parser("section", help="partition + section exactness")
    p.add_argument("file")
    p.add_argument("--samples", type=positive_int, default=1000)
    p = csub.add_parser("continuity", help="sampled Lipschitz certificate")
    p.add_argument("file")
    p.add_argument("--patch", required=True)
    p.add_argument("--pairs", type=positive_int, default=200)
    p.add_argument("--eps", type=positive_float, default=0.01)

    return top


# ---------------------------------------------------------------------------
# Independent oracle 2: PV reachability by stepping program actions
# ---------------------------------------------------------------------------

def _completed_holds(actions, i):
    held = set()
    for a in actions[:i]:
        if a.op == "P":
            held.add(a.semaphore)
        else:
            held.discard(a.semaphore)
    return held


def _open_holds(actions, pos):
    """Semaphores strictly held at integer position `pos` under open-interval
    lock semantics: acquired before pos, released after pos."""
    held = set()
    for idx, a in enumerate(actions):
        coord = idx + 1
        if a.op == "P" and coord < pos:
            held.add(a.semaphore)
        if a.op == "V" and coord <= pos:
            held.discard(a.semaphore)
    return held


class StepAutomaton:
    """Joint program positions with lock-compatible unit moves."""

    def __init__(self, prog):
        self.prog = prog
        self.n1, self.n2 = prog.shape

    def valid(self, state) -> bool:
        i, j = state
        return not (_open_holds(self.prog.process1, i)
                    & _open_holds(self.prog.process2, j))

    def moves(self, state):
        # transiting (i, i+1) holds exactly the locks open after i actions:
        # P'd at a coordinate <= i and V'd strictly later
        i, j = state
        if i < self.n1:
            if not (_completed_holds(self.prog.process1, i)
                    & _open_holds(self.prog.process2, j)):
                yield (i + 1, j)
        if j < self.n2:
            if not (_open_holds(self.prog.process1, i)
                    & _completed_holds(self.prog.process2, j)):
                yield (i, j + 1)

    def reachable(self, start, goal) -> bool:
        if not (self.valid(start) and self.valid(goal)):
            return False
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if cur == goal:
                return True
            for nxt in self.moves(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


def balanced_pv_processes(max_actions: int = 4, semaphores=("a", "b")):
    """Every well-bracketed action sequence up to the given length."""
    from ditopo.pv import Action
    results = [()]
    frontier = [((), frozenset())]
    for _ in range(max_actions):
        nxt = []
        for seq, held in frontier:
            for s in semaphores:
                if s not in held:
                    item = (seq + (Action("P", s),), held | {s})
                else:
                    item = (seq + (Action("V", s),), held - {s})
                nxt.append(item)
        frontier = nxt
        results.extend(seq for seq, held in frontier if not held)
    return sorted(set(results), key=lambda seq: [str(a) for a in seq])


class GridBfsGamma:
    """The node-by-node grid search the library ran before its row-sweep
    engine: each move scans every rectangle, reachable and co-reachable
    sets are breadth-first searches, and a schedule walks the moves that
    stay inside the co-reachable set of its target.  Points are grid nodes
    (integer multiples of 1/resolution in step units)."""

    def __init__(self, prog, resolution: int = 8):
        from ditopo.pv import forbidden_regions
        self.prog = prog
        self.r = resolution
        self.rects = forbidden_regions(prog).rectangles
        n1, n2 = prog.shape
        self.nx, self.ny = n1 * resolution, n2 * resolution
        self._cache = {}

    def node(self, point) -> tuple:
        return round(point[0] * self.r), round(point[1] * self.r)

    def valid_node(self, node) -> bool:
        a, b = node
        r = self.r
        return not any(q.x1 * r < a < q.x2 * r and q.y1 * r < b < q.y2 * r
                       for q in self.rects)

    def _h_blocked(self, a, b) -> bool:
        r = self.r
        return any(q.y1 * r < b < q.y2 * r and q.x1 * r <= a and a + 1 <= q.x2 * r
                   for q in self.rects)

    def _v_blocked(self, a, b) -> bool:
        r = self.r
        return any(q.x1 * r < a < q.x2 * r and q.y1 * r <= b and b + 1 <= q.y2 * r
                   for q in self.rects)

    def moves(self, node):
        a, b = node
        if a < self.nx and not self._h_blocked(a, b):
            yield (a + 1, b)
        if b < self.ny and not self._v_blocked(a, b):
            yield (a, b + 1)

    def back_moves(self, node):
        a, b = node
        if a > 0 and not self._h_blocked(a - 1, b):
            yield (a - 1, b)
        if b > 0 and not self._v_blocked(a, b - 1):
            yield (a, b - 1)

    def _bfs(self, start, step) -> frozenset:
        if (start, step) in self._cache:
            return self._cache[start, step]
        seen = {start}
        queue = deque([start])
        while queue:
            for nxt in step(queue.popleft()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        self._cache[start, step] = result = frozenset(seen)
        return result

    def reachable_from(self, node) -> frozenset:
        return self._bfs(node, self.moves)

    def coreachable_to(self, node) -> frozenset:
        return self._bfs(node, self.back_moves)

    def membership(self, x, y) -> bool:
        a, b = self.node(x), self.node(y)
        if not (self.valid_node(a) and self.valid_node(b)):
            return False
        return a[0] <= b[0] and a[1] <= b[1] and b in self.reachable_from(a)

    def schedule_json(self, x, y):
        """The schedule's JSON document, or None where there is none."""
        if not self.membership(x, y):
            return None
        a, b, r = self.node(x), self.node(y), self.r
        good = self.coreachable_to(b)
        points, actions, cur = [a], [], a
        while cur != b:
            options = [n for n in self.moves(cur)
                       if n in good and n[0] <= b[0] and n[1] <= b[1]]
            options.sort(key=lambda n: (-(b[0] - cur[0]) if n[0] > cur[0] else -(b[1] - cur[1]),
                                        0 if n[0] > cur[0] else 1))
            nxt = options[0]
            axis = 0 if nxt[0] > cur[0] else 1
            process = self.prog.process(axis + 1)
            if cur[axis] % r == 0 and cur[axis] >= r:
                act = process[cur[axis] // r - 1]
                if act.op == "P":
                    actions.append(f"{axis + 1}:{act}")
            if nxt[axis] % r == 0:
                act = process[nxt[axis] // r - 1]
                if act.op == "V":
                    actions.append(f"{axis + 1}:{act}")
            points.append(nxt)
            cur = nxt
        return {"path": [[p[0] / r, p[1] / r] for p in points], "interleaving": actions}

# ---------------------------------------------------------------------------
# Independent oracle: cube-boundary reachability by lattice search
# ---------------------------------------------------------------------------

def _on_lattice_boundary(node: tuple, grid: int) -> bool:
    return any(c == 0 or c == grid for c in node)


def _lattice_reachable(n: int, grid: int, a: tuple, b: tuple) -> bool:
    """Monotone lattice BFS from a to b within the boundary, boxed by [a, b]."""
    if not all(x <= y for x, y in zip(a, b)):
        return False
    seen = {a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return True
        for i in range(n + 1):
            if cur[i] >= b[i]:
                continue
            nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
            if nxt in seen or not _on_lattice_boundary(nxt, grid):
                continue
            seen.add(nxt)
            queue.append(nxt)
    return False


def lattice_sphere_gamma(n: int, x, y, grid: int = 16) -> bool:
    """``sphere_gamma`` as it was before its closed form: the same point
    validation and exact pre-checks, then a breadth-first search over
    monotone unit moves on the boundary of the lattice [0, grid]^(n+1),
    from x and to y quantized at 1/16."""
    x, y = check_sphere_point(x, n), check_sphere_point(y, n)
    if any(b < a - 1e-9 for a, b in zip(x, y)):
        return False
    if x == y or any(a == b and a in (0.0, 1.0) for a, b in zip(x, y)):
        return True
    scale = grid // 16
    a = tuple(round(c * 16) * scale for c in x)
    b = tuple(round(c * 16) * scale for c in y)
    assert _on_lattice_boundary(a, grid) and _on_lattice_boundary(b, grid)
    return _lattice_reachable(n, grid, a, b)


def sphere_probe_pairs(n: int, rng: random.Random, draws: int) -> list:
    """Pairs of boundary points of the (n+1)-cube, five per draw: uniform;
    on the 1/16 lattice; within 1e-9 of the lattice's facets (snapped onto
    them); just off lattice nodes, where a free coordinate of 0.01
    quantizes to a facet; and a point against itself lowered by 5e-10."""

    def variants(p):
        on = tuple(round(c * 16) / 16 for c in p)
        near = tuple(5e-10 if c == 0.0 else 1.0 - 5e-10 if c == 1.0 else c for c in on)
        off = tuple(c if c in (0.0, 1.0) else
                    min(max(round(c * 16) / 16 + rng.choice((-0.01, 0.01)), 0.01), 0.99)
                    for c in p)
        return p, on, near, off

    pairs = []
    for _ in range(draws):
        xs = variants(sample_boundary_point(n, rng))
        ys = variants(sample_boundary_point(n, rng))
        pairs.extend(zip(xs, ys))
        x = xs[0]
        pairs.append((x, tuple(c if c in (0.0, 1.0) else c - 5e-10 for c in x)))
    return pairs


# ---------------------------------------------------------------------------
# Independent oracle: natural homology on dense matrices
# ---------------------------------------------------------------------------
#
# The dense-matrix algorithm the library ran before morphisms became basis
# index maps, on plain lists: every morphism is its full 0/1 matrix, a unit
# is a square matrix with determinant +-1, and heredity multiplies matrices
# for every (morphism, morphism, relation triple) combination.  Relation
# matrices take the library's entry rule: non-integer entries are refused,
# where the old code truncated them.

class Dense:
    """An integer matrix with an explicit shape, so that 0 x k is kept."""

    def __init__(self, rows: int, cols: int, data):
        self.rows, self.cols = rows, cols
        self.data = [list(r) for r in data]
        assert len(self.data) == rows and all(len(r) == cols for r in self.data)

    @classmethod
    def of(cls, matrix) -> "Dense":
        """A morphism matrix, shaped as the old ``NatMorphism.array()`` was."""
        return cls(len(matrix), len(matrix[0]) if matrix else 0, matrix)

    def __matmul__(self, other: "Dense") -> "Dense":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} "
                             f"by {other.rows}x{other.cols}")
        return Dense(self.rows, other.cols,
                     [[sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                       for j in range(other.cols)] for i in range(self.rows)])

    def __eq__(self, other) -> bool:
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)


def bareiss_det(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def dense_is_unit(m: Dense) -> bool:
    if m.rows != m.cols:
        return False
    return m.rows == 0 or bareiss_det(m.data) in (1, -1)


def _flat(eta) -> list:
    if isinstance(eta, (list, tuple)):
        return [v for item in eta for v in _flat(item)]
    return [eta]


def dense_relation_matrix(eta, rows: int, cols: int) -> Dense:
    entries = _flat(eta)
    if len(entries) != rows * cols:
        raise ValueError(f"{len(entries)} entries do not fill {rows}x{cols}")
    if any(int(v) != v for v in entries):
        raise NotIso(f"non-integer entry in {eta!r}")
    return Dense(rows, cols, [[int(v) for v in entries[r * cols:(r + 1) * cols]]
                              for r in range(rows)])


def dense_is_bisimilar_to_point(diagram):
    if not diagram.objects:
        return False, {"reason": "no objects to relate"}
    for o in diagram.objects:
        if o.rank != 1:
            return False, {"object": o.id, "rank": o.rank}
    for m in diagram.morphisms:
        if not dense_is_unit(Dense.of(m.matrix)):
            return False, {"morphism": [m.src, m.dst], "matrix": [list(r) for r in m.matrix]}
    return True, {"pairing": [[o.id, [[1]], "pt"] for o in diagram.objects]}


def dense_check_bisimulation(d1, d2, relation) -> bool:
    def obj(d, oid):
        found = [o for o in d.objects if o.id == oid]
        if not found:
            raise KeyError(f"no object {oid!r}")
        return found[0]

    triples = []
    for (a, eta, b) in relation:
        m = dense_relation_matrix(eta, obj(d2, b).rank, obj(d1, a).rank)
        if not dense_is_unit(m):
            raise NotIso(f"relation matrix between {a!r} and {b!r} is not a Z-isomorphism")
        triples.append((a, m, b))

    def closes(src_diag, dst_diag, src_id, eta, dst_id, forward: bool) -> bool:
        for f in [m for m in src_diag.morphisms if m.src == src_id]:
            matched = False
            for g in [m for m in dst_diag.morphisms if m.src == dst_id]:
                for (a2, eta2, b2) in triples:
                    x2, y2 = (a2, b2) if forward else (b2, a2)
                    if x2 != f.dst or y2 != g.dst:
                        continue
                    fm, gm = Dense.of(f.matrix), Dense.of(g.matrix)
                    lhs = eta2 @ fm if forward else eta2 @ gm
                    rhs = gm @ eta if forward else fm @ eta
                    if lhs == rhs:
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                return False
        return True

    for (a, eta, b) in triples:
        if not closes(d1, d2, a, eta, b, forward=True):
            return False
        if not closes(d2, d1, b, eta, a, forward=False):
            return False
    return True


# ---------------------------------------------------------------------------
# Independent oracle: the dataclasses the value classes replaced
# ---------------------------------------------------------------------------
#
# The library's value classes were dataclasses until they became slotted
# classes with hand-written __init__, __eq__, __hash__ and __repr__.  These
# are those dataclass definitions, fields, defaults and __post_init__ checks
# as they were (methods and properties left out), so tests can compare
# constructor signatures, attributes, repr, equality and hashing.
# ProductSpace, the twentieth, was deleted rather than converted.

class Dataclasses:
    # ditopo.core
    @dataclass(frozen=True)
    class Vertex:
        vertex: str

        def __repr__(self):
            return f"v:{self.vertex}"

    @dataclass(frozen=True)
    class EdgeInterior:
        edge: str
        t: float

        def __post_init__(self):
            if not (0.0 < self.t < 1.0):
                raise InvalidPoint(f"edge parameter must lie strictly in (0,1), got {self.t}")

        def __repr__(self):
            return f"e:{self.edge}:{self.t:g}"

    @dataclass(frozen=True)
    class Step:
        edge: str
        t_from: float
        t_to: float

    @dataclass
    class Patch:
        id: str
        membership: Callable[[object, object], bool]
        section: Callable[[object, object], object]
        lipschitz_bound: float

    @dataclass
    class Patchwork:
        patches: list
        regular: bool = False
        space: object = None

    @dataclass
    class DiTCReport:
        lower: int
        upper: int
        exact: bool
        reason: object
        patchwork: Optional[object] = None

        def __post_init__(self):
            if not (1 <= self.lower <= self.upper):
                raise ValueError(f"bad bounds: {self.lower}..{self.upper}")
            if self.exact != (self.lower == self.upper):
                raise ValueError("exact flag must mirror lower == upper")
            if self.patchwork is not None and len(self.patchwork.patches) != self.upper:
                raise ValueError("witness patch count must equal the upper bound")

    @dataclass
    class SectionCheckReport:
        samples: int
        membership_violations: list = field(default_factory=list)
        endpoint_violations: list = field(default_factory=list)
        path_violations: list = field(default_factory=list)

    @dataclass
    class ContinuityReport:
        patch_id: str
        pairs_requested: int
        pairs_used: int
        lipschitz_bound: float
        max_ratio: float
        violations: list = field(default_factory=list)
        worst: Optional[dict] = None

    # ditopo.graph
    @dataclass(frozen=True)
    class Edge:
        id: str
        src: str
        dst: str

    @dataclass
    class TraceClassSummary:
        count: float
        representatives: tuple

    # ditopo.nathom
    @dataclass(frozen=True)
    class NatObject:
        id: str
        source: str
        target: str
        trace: tuple
        basis: tuple

    @dataclass(frozen=True)
    class NatMorphism:
        src: str
        dst: str
        alpha: tuple
        beta: tuple
        image: tuple
        dst_rank: int

    @dataclass
    class NatDiagram:
        objects: list
        morphisms: list
        _index: tuple = field(default=None, init=False, repr=False, compare=False)

    # ditopo.pv
    @dataclass(frozen=True)
    class Action:
        op: str
        semaphore: str

    @dataclass(frozen=True)
    class PVProgram:
        process1: tuple
        process2: tuple

    @dataclass(frozen=True)
    class Rect:
        semaphore: str
        x1: int
        x2: int
        y1: int
        y2: int

    @dataclass
    class ForbiddenRegion:
        rectangles: list

    @dataclass
    class Schedule:
        program: object
        resolution: int
        points: tuple
        interleaving: tuple


# a dataclass repr names the class by its qualified name; the library's
# classes are module-level, so these must print as module-level ones do
for _ref in vars(Dataclasses).values():
    if isinstance(_ref, type):
        _ref.__qualname__ = _ref.__name__
