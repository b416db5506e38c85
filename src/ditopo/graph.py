"""Directed multigraphs as directed spaces.

Reachability over a directed graph splits into finitely many cell-level
cases (vertex/vertex, vertex/edge-interior, and so on), which makes the
reachability relation decidable exactly.  Trace classes of directed paths
are identified with reduced edge-id sequences: with no 2-cells, paths with
distinct edge sequences are never deformable into each other, while
reparametrizations collapse.

``ditc`` classifies a graph into tiers and returns certified bounds with a
witnessing patchwork; ``build_planner`` exposes the witness directly.  The
tiers read only the reachability oracle's bitsets: which vertices lie on a
cycle, the strongly connected components and, on an acyclic graph, each
vertex's set of targets reached by two or more paths.

The undirected metric and the sampling of the relation serve only the
testers, so their code lives in ``ditopo.certify`` and is compiled on
first use (``_Certify``).
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Iterable, Optional, Sequence

from .core import (
    DiPath,
    DiTCReport,
    EdgeInterior,
    GraphPoint,
    PARAM_TOL,
    Patch,
    Patchwork,
    Reason,
    Step,
    Vertex,
    points_equal,
)
from .errors import InvalidPoint, NotConnected, Unreachable
from .record import FrozenRecord, Record


class _Certify:
    """A method whose code is the named function of ``ditopo.certify``.
    The first lookup imports that module and sets the function on the class
    in place of this descriptor, so later calls cost nothing extra."""

    def __init__(self, function: str):
        self.function = function

    def __set_name__(self, owner, name):
        self.owner, self.name = owner, name

    def __get__(self, obj, owner=None):
        from . import certify
        fn = getattr(certify, self.function)
        setattr(self.owner, self.name, fn)
        return fn.__get__(obj, owner)


class Edge(FrozenRecord):
    __slots__ = _fields = ("id", "src", "dst")

    def __init__(self, id: str, src: str, dst: str):
        self.id = id
        self.src = src
        self.dst = dst


class DirectedGraph:
    """Vertices plus oriented multi-edges; loops and parallel edges allowed."""

    def __init__(self, vertices: Iterable[str], edges: Iterable):
        self.vertices = tuple(dict.fromkeys(vertices))
        self.vertex_set = frozenset(self.vertices)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        self._edge_map = {}
        for e in self.edges:
            if e.id in self._edge_map:
                raise ValueError(f"duplicate edge id {e.id!r}")
            if e.src not in self.vertex_set or e.dst not in self.vertex_set:
                raise ValueError(f"edge {e.id!r} references unknown vertices")
            self._edge_map[e.id] = e
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        # ids are unique, so one sort leaves every adjacency list in id order
        for e in sorted(self.edges, key=lambda e: e.id):
            self._out[e.src].append(e)
            self._in[e.dst].append(e)
        self._vertex_dist: dict = {}
        self._gamma: Optional[GammaOracle] = None

    # -- structure ---------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def out_edges(self, v: str) -> list[Edge]:
        return self._out[v]

    def in_edges(self, v: str) -> list[Edge]:
        return self._in[v]

    def point_at(self, edge_id: str, t: float) -> GraphPoint:
        """The point at parameter t of an edge; boundaries become vertices."""
        e = self.edge(edge_id)
        if t <= PARAM_TOL:
            return Vertex(e.src)
        if t >= 1.0 - PARAM_TOL:
            return Vertex(e.dst)
        return EdgeInterior(edge_id, t)

    def contains_point(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.vertex in self.vertex_set
        return p.edge in self._edge_map

    # -- undirected metric ---------------------------------------------------

    def _distances_from(self, source: str) -> dict:
        """Hop counts from ``source`` by undirected BFS, computed on first use."""
        dist = self._vertex_dist.get(source)
        if dist is not None:
            return dist
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self._out[u] + self._in[u]:
                w = e.dst if e.src == u else e.src
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        self._vertex_dist[source] = dist
        return dist

    def vertex_distance(self, u: str, v: str) -> float:
        return self._distances_from(u).get(v, math.inf)

    distance = _Certify("graph_distance")
    sup_fractions = _Certify("graph_sup_fractions")

    # -- connectivity --------------------------------------------------------

    def undirected_components(self) -> list[frozenset]:
        """The vertex sets of the undirected components, each read off the
        hop-count table of its first vertex."""
        comps: list = []
        seen: set = set()
        for v in self.vertices:
            if v not in seen:
                comps.append(frozenset(self._distances_from(v)))
                seen |= comps[-1]
        return comps

    def is_connected(self) -> bool:
        return len(self.undirected_components()) <= 1

    def induced(self, vertices: frozenset) -> "DirectedGraph":
        keep = [v for v in self.vertices if v in vertices]
        edges = [e for e in self.edges if e.src in vertices and e.dst in vertices]
        return DirectedGraph(keep, edges)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DirectedGraph":
        return cls(doc["vertices"], [(e["id"], e["src"], e["dst"]) for e in doc["edges"]])

    def to_dot(self) -> str:
        lines = [f'  "{v}";' for v in self.vertices]
        lines += [f'  "{e.src}" -> "{e.dst}" [label="{e.id}"];' for e in self.edges]
        return "\n".join(["digraph {", *lines, "}"])

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

class GammaOracle:
    """Decidable membership in the reachability relation of a graph.

    Cell-level reachability tables make the interior-point property hold by
    construction: whether an edge-interior point reaches a target outside
    its edge depends only on the edge, never on the parameter.

    Construction: one iterative Tarjan pass condenses the graph into its
    strongly connected components, emitted sinks first.  Vertices are
    numbered in that order, so a vertex outranks every vertex it reaches
    outside its own component.  Each component gets a Python-int bitset of
    the vertices it reaches: its own bits ORed with its successors' sets.
    Cost: O(V + E) for the condensation plus O(V^2 / 64) machine words for
    the bitsets; ``reaches`` is then one bit test.
    """

    def __init__(self, graph: DirectedGraph):
        self.graph = graph
        self._sccs = _strong_components(graph)
        self._order = [v for comp in self._sccs for v in comp]
        self._mask = {v: 1 << i for i, v in enumerate(self._order)}
        self._reach = self._closure(self._mask)
        self._cyclic = frozenset([e.src for e in graph.edges if e.src == e.dst]
                                 + [v for comp in self._sccs if len(comp) > 1 for v in comp])
        self._pair_table: Optional[tuple] = None  # built by the first sample_pair

    def _closure(self, own: dict) -> dict:
        """Each vertex's OR of ``own`` over the vertices it reaches, in one
        sinks-first pass over the components: O(E) big-int ORs."""
        out: dict = {}
        for comp in self._sccs:
            bits = 0
            for v in comp:
                # successors inside the component have no entry yet: their
                # bits come in through ``own``
                bits |= own[v]
                for e in self.graph.out_edges(v):
                    bits |= out.get(e.dst, 0)
            for v in comp:
                out[v] = bits
        return out

    def reaches(self, u: str, v: str) -> bool:
        return self._reach[u] & self._mask.get(v, 0) != 0

    def _descendants(self, u: str) -> list:
        """Vertices u reaches, itself included, sinks first."""
        text = bin(self._reach[u])[:1:-1]  # character i is bit i
        return [self._order[m.start()] for m in re.finditer("1", text)]

    def membership(self, x: GraphPoint, y: GraphPoint) -> bool:
        g = self.graph
        if not (g.contains_point(x) and g.contains_point(y)):
            raise InvalidPoint(f"point outside graph: {x!r} or {y!r}")
        if isinstance(x, Vertex):
            u = x.vertex
        elif not isinstance(y, Vertex) and x.edge == y.edge and x.t <= y.t:
            return True
        else:
            u = g._edge_map[x.edge].dst
        v = y.vertex if isinstance(y, Vertex) else g._edge_map[y.edge].src
        return self._reach[u] & self._mask[v] != 0

    # -- sampling-space protocol --------------------------------------------

    sample_point = _Certify("oracle_sample_point")
    sample_pair = _Certify("oracle_sample_pair")
    perturb_pair = _Certify("oracle_perturb_pair")

    def distance(self, a: GraphPoint, b: GraphPoint) -> float:
        return self.graph.distance(a, b)

    def sup_fractions(self, p: DiPath, q: DiPath) -> list[float]:
        return self.graph.sup_fractions(p, q)


def _strong_components(g: DirectedGraph) -> list:
    """Strongly connected components, each emitted after every component it
    reaches (Tarjan's algorithm with an explicit stack, so deep graphs do not
    exhaust the interpreter's recursion limit)."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    comps: list = []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g.out_edges(root)))]
        while work:
            v, edges = work[-1]
            for e in edges:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.out_edges(w))))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(comp))
    return comps


def gamma(g: DirectedGraph) -> GammaOracle:
    """The reachability relation of a graph, as a decidable oracle.

    Built once per graph (SCC condensation plus reachability bitsets:
    O(V + E) time and O(V^2 / 64) words, see ``GammaOracle``) and memoised
    on it, so every later query of the same graph shares that build.
    """
    if g._gamma is None:
        g._gamma = GammaOracle(g)
    return g._gamma


def is_strongly_connected_dspace(g: DirectedGraph) -> bool:
    """True iff every ordered pair of points is joined by a directed path."""
    return len(gamma(g)._sccs) <= 1


def betti1(g: DirectedGraph) -> int:
    """First Betti number of the underlying undirected multigraph."""
    return len(g.edges) - len(g.vertices) + len(g.undirected_components())


def classical_tc_graph(g: DirectedGraph) -> int:
    """Topological complexity of the underlying graph: min(b1, 2) + 1."""
    if not g.is_connected():
        raise NotConnected("classical complexity formula needs a connected graph")
    return min(betti1(g), 2) + 1


# ---------------------------------------------------------------------------
# Trace classes
# ---------------------------------------------------------------------------

class TraceClassSummary(Record):
    """Distinct reduced edge sequences between two points.

    ``count`` is ``math.inf`` when a directed cycle can be inserted along
    some route, in which case ``representatives`` holds at most the cutoff.
    """

    __slots__ = _fields = ("count", "representatives")

    def __init__(self, count: float, representatives: tuple):
        self.count = count
        self.representatives = representatives

    @property
    def infinite(self) -> bool:
        return self.count == math.inf


def _route_anchors(x: GraphPoint, y: GraphPoint, g: DirectedGraph):
    """Exit vertex + prefix and entry vertex + suffix for routed classes."""
    if isinstance(x, Vertex):
        exit_v, prefix = x.vertex, ()
    else:
        exit_v, prefix = g.edge(x.edge).dst, (x.edge,)
    if isinstance(y, Vertex):
        entry_v, suffix = y.vertex, ()
    else:
        entry_v, suffix = g.edge(y.edge).src, (y.edge,)
    return exit_v, prefix, entry_v, suffix


def traces_between(g: DirectedGraph, x: GraphPoint, y: GraphPoint,
                   cutoff: int = 16) -> TraceClassSummary:
    """Enumerate trace classes from x to y as reduced edge-id sequences.

    A finite count is exact (a path-count DP over the vertices that lie
    between the route's anchors), and enumeration stops at ``cutoff``
    classes either way, so a huge finite trace space costs no more to
    summarise than its first representatives.
    """
    oracle = gamma(g)
    if not oracle.membership(x, y):
        return TraceClassSummary(0, ())
    classes: list[tuple] = []
    if isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) and x.edge == y.edge:
        if abs(x.t - y.t) <= PARAM_TOL:
            classes.append(())
        elif x.t < y.t:
            classes.append((x.edge,))
    count = len(classes)

    exit_v, prefix, entry_v, suffix = _route_anchors(x, y, g)
    if oracle.reaches(exit_v, entry_v):
        # sinks first, so every vertex comes after its relevant successors
        between = [v for v in oracle._descendants(exit_v) if oracle.reaches(v, entry_v)]
        relevant = frozenset(between)
        if relevant.isdisjoint(oracle._cyclic):
            walks: dict = {}
            for v in between:
                walks[v] = (v == entry_v) + sum(
                    walks[e.dst] for e in g.out_edges(v) if e.dst in relevant)
            count += walks[exit_v]
        else:
            count = math.inf
        max_len = 2 * len(g.edges) + 2
        walk: list[str] = []
        stack: list = []

        def enter(v: str) -> None:
            if v == entry_v:
                classes.append(prefix + tuple(walk) + suffix)
            stack.append(iter(g.out_edges(v) if len(walk) < max_len else ()))

        if len(classes) < cutoff:
            enter(exit_v)
        while stack and len(classes) < cutoff:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if walk:
                    walk.pop()
            elif e.dst in relevant:
                walk.append(e.id)
                enter(e.dst)
    return TraceClassSummary(count, tuple(classes[:cutoff]))


def path_from_class(g: DirectedGraph, x: GraphPoint, y: GraphPoint,
                    seq: Sequence[str]) -> DiPath:
    """The constant-velocity path from x to y realizing one trace class."""
    if not seq:
        return DiPath.constant(g, x)
    steps = []
    last = len(seq) - 1
    for k, eid in enumerate(seq):
        t0 = x.t if (k == 0 and isinstance(x, EdgeInterior) and x.edge == eid) else 0.0
        t1 = y.t if (k == last and isinstance(y, EdgeInterior) and y.edge == eid) else 1.0
        steps.append(Step(eid, t0, t1))
    return DiPath(g, steps)


# ---------------------------------------------------------------------------
# Complexity tiers
# ---------------------------------------------------------------------------

def _multi_paths(g: DirectedGraph, oracle: GammaOracle) -> dict:
    """For each vertex u of an acyclic graph, the bitset (in ``oracle._mask``
    numbering) of the targets u reaches by two or more directed paths.

    One sinks-first pass: a target has two paths from u iff some out-edge's
    head has two paths to it, or two out-edges of u reach it.  O(E) big-int
    operations; a DAG whose sets are all empty is a multitree.
    """
    multi: dict = {}
    for u in oracle._order:
        twice = once = 0
        for e in g.out_edges(u):
            reach = oracle._reach[e.dst]
            twice |= multi[e.dst] | (once & reach)
            once |= reach
        multi[u] = twice
    return multi


def _lex_shortest_paths(g: DirectedGraph, source: str) -> dict:
    """Lexicographically least shortest edge sequence to each reachable vertex."""
    best = {source: ()}
    frontier = [source]
    while frontier:
        nxt: dict = {}
        for u in frontier:
            for e in g.out_edges(u):
                if e.dst in best:
                    continue
                cand = best[u] + (e.id,)
                if e.dst not in nxt or cand < nxt[e.dst]:
                    nxt[e.dst] = cand
        best.update(nxt)
        frontier = sorted(nxt)
    return best


def _fixed_paths(g: DirectedGraph):
    """A fixed directed path, as an edge sequence, for every reachable
    ordered vertex pair; each source's paths are computed on its first query."""
    by_source: dict = {}

    def sequence(u: str, v: str) -> tuple:
        paths = by_source.get(u)
        if paths is None:
            paths = by_source[u] = _lex_shortest_paths(g, u)
        return paths[v]
    return sequence


# ---------------------------------------------------------------------------
# Planners as regime tables
# ---------------------------------------------------------------------------

class CellPlanner(Patchwork):
    """A patchwork that fixes one patch and one path rule on each regime.

    ``patches`` lists (patch id, Lipschitz bound) in patch order.
    ``regime(x, y)`` is a hashable key of the pair; ``rule(x, y)``, called
    on the first pair of a regime that lies in the relation, returns the
    regime's entry (patch index, data); ``build(k, data, x, y)`` makes the
    section from an entry.  ``table`` maps each regime queried so far to its
    entry, and a regime outside the relation gets none.  A claim is one
    lookup: patch k holds the pairs in the relation whose entry names k.
    The patches hold the lookup, not the planner, so a dropped planner and
    its table are freed at once rather than by the cycle collector.
    """

    __slots__ = ("table", "regime", "build", "entry")

    def __init__(self, space, patches, regime, rule, build):
        table = {}

        def entry(x, y):
            """The entry of the pair's regime, filled on first query; None
            if the pair is outside the relation."""
            key = regime(x, y)
            e = table.get(key)
            if e is None and space.membership(x, y):
                e = table[key] = rule(x, y)
            return e

        self.table, self.regime, self.build, self.entry = table, regime, build, entry
        super().__init__([_cell_patch(entry, build, k, pid, bound)
                          for k, (pid, bound) in enumerate(patches)], True, space)

    def claiming_patches(self, x, y) -> list:
        e = self.entry(x, y)
        return [] if e is None else [self.patches[e[0]]]


def _cell_patch(entry, build, k: int, pid: str, bound: float) -> Patch:
    def member(x, y):
        e = entry(x, y)
        return e is not None and e[0] == k

    def section(x, y):
        e = entry(x, y)
        if e is None or e[0] != k:
            raise Unreachable(f"patch {pid} does not hold ({x!r}, {y!r})")
        return build(k, e[1], x, y)
    return Patch(pid, member, section, bound)


def _graph_planner(oracle: GammaOracle, patches, rule, build=None) -> CellPlanner:
    """A CellPlanner on a graph; by default an entry's data is the edge
    sequence of its section.

    The regime of (x, y) is (id of x's cell, id of y's cell, code): code is
    2 for an edge x plus 1 for an edge y, or 4 + o when both points lie
    inside one edge.  With d = y.t - x.t, o is 0 for d > PARAM_TOL, 1 for
    0 <= d <= PARAM_TOL, 2 for -PARAM_TOL <= d < 0 and 3 below, so both
    ``membership`` (x.t <= y.t) and ``points_equal`` (|d| <= PARAM_TOL) are
    constant on each regime.
    """
    g = oracle.graph

    def regime(x, y) -> tuple:
        a, code = (x.vertex, 0) if isinstance(x, Vertex) else (x.edge, 2)
        if isinstance(y, Vertex):
            return a, y.vertex, code
        if code and a == y.edge:
            d = y.t - x.t
            return a, a, 4 if d > PARAM_TOL else 5 if d >= 0.0 else 6 if d >= -PARAM_TOL else 7
        return a, y.edge, code + 1

    if build is None:
        def build(k, seq, x, y):
            return path_from_class(g, x, y, seq)
    return CellPlanner(oracle, patches, regime, rule, build)


def _unique_class(g: DirectedGraph, x: GraphPoint, y: GraphPoint) -> tuple:
    summary = traces_between(g, x, y, cutoff=2)
    if summary.count != 1:
        raise RuntimeError(f"pair ({x!r},{y!r}) does not have a unique trace class")
    return summary.representatives[0]


def _three_patch_planner(g: DirectedGraph, oracle: GammaOracle) -> CellPlanner:
    """The general construction: vertex pairs, mixed pairs, interior pairs.
    Vertex pairs take a fixed vertex path; an interior end runs to or from
    its edge's end and joins it; a pair inside one edge with x.t <= y.t
    stays on it."""
    fixed = _fixed_paths(g)

    def rule(x, y):
        if isinstance(x, Vertex):
            if isinstance(y, Vertex):
                return 0, fixed(x.vertex, y.vertex)
            return 1, fixed(x.vertex, g.edge(y.edge).src) + (y.edge,)
        if isinstance(y, Vertex):
            return 1, (x.edge,) + fixed(g.edge(x.edge).dst, y.vertex)
        if x.edge == y.edge and x.t <= y.t:
            return 2, (x.edge,)
        middle = fixed(g.edge(x.edge).dst, g.edge(y.edge).src)
        return 2, (x.edge,) + middle + (y.edge,)

    return _graph_planner(oracle, [("F1", 2.0), ("F2", 2.0), ("F3", 2.0)], rule)


def _cycle_order(g: DirectedGraph) -> list[Edge]:
    """Edges of a single directed cycle, starting at the least vertex id."""
    for v in g.vertices:
        if len(g.out_edges(v)) != 1 or len(g.in_edges(v)) != 1:
            raise RuntimeError("graph is not a simple directed cycle")
    start = min(g.vertices)
    order = []
    v = start
    for _ in range(len(g.edges)):
        e = g.out_edges(v)[0]
        order.append(e)
        v = e.dst
    if v != start:
        raise RuntimeError("cycle does not close up")
    return order


def _cycle_planner(g: DirectedGraph, oracle: GammaOracle) -> CellPlanner:
    """Diagonal pairs get constant paths; the rest run forward with constant
    velocity along the cycle, the angular gap taken in [0, circumference).
    The table holds only the patch; the forward run is computed per pair."""
    order = _cycle_order(g)
    circumference = float(len(order))
    edge_index = {e.id: i for i, e in enumerate(order)}
    vertex_pos = {e.src: float(i) for i, e in enumerate(order)}

    def position(p: GraphPoint) -> float:
        if isinstance(p, Vertex):
            return vertex_pos[p.vertex]
        return edge_index[p.edge] + p.t

    def build(k, _, x, y):
        if k == 0:
            return DiPath.constant(g, x)
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

    return _graph_planner(oracle, [("diagonal", 1.0), ("offdiagonal", 2.0)],
                          lambda x, y: (0 if points_equal(x, y) else 1, None), build)


def _unique_planner(g: DirectedGraph, oracle: GammaOracle) -> CellPlanner:
    return _graph_planner(oracle, [("all", 2.0)], lambda x, y: (0, _unique_class(g, x, y)))


def _conflict_planner(g: DirectedGraph, oracle: GammaOracle, multi: dict) -> CellPlanner:
    """Vertex pairs joined by two or more paths take a fixed path; every
    other pair in the relation has a unique trace class."""
    fixed = _fixed_paths(g)

    def rule(x, y):
        if (isinstance(x, Vertex) and isinstance(y, Vertex)
                and multi[x.vertex] & oracle._mask[y.vertex]):
            return 0, fixed(x.vertex, y.vertex)
        return 1, _unique_class(g, x, y)

    return _graph_planner(oracle, [("conflicts", 2.0), ("rest", 2.0)], rule)


def _constant_planner(g: DirectedGraph, oracle: GammaOracle) -> CellPlanner:
    return _graph_planner(oracle, [("all", 1.0)], lambda x, y: (0, ()))


def _connected_report(g: DirectedGraph) -> DiTCReport:
    """The tier of a connected graph, read off its reachability oracle.

    An acyclic graph with no vertex pair joined by two paths (a multitree)
    has unique trace classes.  Otherwise a strongly connected graph gets the
    classical formula.  An acyclic graph whose multi-path pairs all run from
    a vertex with no in-edge to a vertex with no out-edge gets two patches:
    those vertex pairs and the rest.  Every other graph gets [2, 3].
    """
    oracle = gamma(g)
    multi = None if oracle._cyclic else _multi_paths(g, oracle)
    if multi is not None and not any(multi.values()):
        return DiTCReport(1, 1, True, Reason.UNIQUE_TRACES, _unique_planner(g, oracle))
    if len(oracle._sccs) <= 1:
        k = min(betti1(g), 2) + 1
        if k == 1:
            planner = _constant_planner(g, oracle)
        elif k == 2:
            planner = _cycle_planner(g, oracle)
        else:
            planner = _three_patch_planner(g, oracle)
        return DiTCReport(k, k, True, Reason.STRONGLY_CONNECTED_FORMULA, planner)
    if multi is not None:
        sinks = sum(oracle._mask[v] for v in g.vertices if not g.out_edges(v))
        if all(m | sinks == sinks and not g.in_edges(u) for u, m in multi.items() if m):
            planner = _conflict_planner(g, oracle, multi)
            return DiTCReport(2, 2, True, Reason.FINITE_CONFLICT_TWO_PATCH, planner)
    return DiTCReport(2, 3, False, Reason.GENERAL_THREE_PATCH, _three_patch_planner(g, oracle))


def ditc(g: DirectedGraph, combine_components: bool = True) -> DiTCReport:
    """Certified directed-complexity bounds with a witnessing patchwork.

    A disconnected graph gets the max of its components' bounds, with the
    reason of the component whose upper bound is largest, and no witness
    (``patchwork`` is None); ``build_planner`` refuses such graphs.  Pass
    combine_components=False to raise NotConnected instead.
    """
    comps = g.undirected_components()
    if len(comps) <= 1:
        return _connected_report(g)
    if not combine_components:
        raise NotConnected(f"graph has {len(comps)} components")
    reports = [_connected_report(g.induced(c)) for c in comps]
    lower = max(r.lower for r in reports)
    upper = max(r.upper for r in reports)
    reason = max(reports, key=lambda r: r.upper).reason
    return DiTCReport(lower, upper, lower == upper, reason, None)


def build_planner(g: DirectedGraph) -> Patchwork:
    """The patchwork witnessing ditc(g).upper on a connected graph."""
    if not g.is_connected():
        raise NotConnected("planners are built for connected graphs only")
    return _connected_report(g).patchwork


def three_patch_planner(g: DirectedGraph) -> Patchwork:
    """The always-available 3-patch construction on any connected graph.

    Works regardless of what tier ``ditc`` assigns; ``build_planner``
    prefers smaller witnesses when it can certify them.
    """
    if not g.is_connected():
        raise NotConnected("planners are built for connected graphs only")
    return _three_patch_planner(g, gamma(g))


def subdivide(g: DirectedGraph) -> DirectedGraph:
    """Replace each edge u -> v by u -> m_<edge> -> v (same directed space)."""
    vertices = list(g.vertices)
    edges = []
    taken = set(g.vertices) | {e.id for e in g.edges}

    def fresh(name: str) -> str:
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    for e in g.edges:
        mid = fresh(f"m_{e.id}")
        vertices.append(mid)
        edges.append((fresh(f"{e.id}_a"), e.src, mid))
        edges.append((fresh(f"{e.id}_b"), mid, e.dst))
    return DirectedGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Built-in spaces
# ---------------------------------------------------------------------------

def directed_interval() -> DirectedGraph:
    """Two vertices joined by one oriented edge."""
    return DirectedGraph(["0", "1"], [("e", "0", "1")])


def directed_circle() -> DirectedGraph:
    """Two parallel oriented edges b -> e; homeomorphic to a circle."""
    return DirectedGraph(["b", "e"], [("top", "b", "e"), ("bot", "b", "e")])


def directed_loop() -> DirectedGraph:
    """One vertex with a single oriented loop edge."""
    return DirectedGraph(["v"], [("l", "v", "v")])


def cycle_graph(n: int) -> DirectedGraph:
    """A directed cycle with n vertices and n edges."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    return DirectedGraph(vertices, edges)


def parallel_edges(k: int) -> DirectedGraph:
    """k parallel oriented edges b -> e."""
    if k < 1:
        raise ValueError("need k >= 1 edges")
    return DirectedGraph(["b", "e"], [(f"e{i}", "b", "e") for i in range(k)])


def _arc_planner(g: DirectedGraph, arcs) -> CellPlanner:
    """One patch per (patch id, edge id) of parallel edges: a pair inside or
    at the ends of one edge, in order along it, runs along that edge.  Vertex
    pairs belong to the first patch, and a vertex to itself stays put."""
    ids = [edge for _, edge in arcs]

    def rule(x, y):
        if isinstance(x, Vertex) and isinstance(y, Vertex):
            return 0, () if x == y else (ids[0],)
        edge = y.edge if isinstance(x, Vertex) else x.edge
        return ids.index(edge), (edge,)

    return _graph_planner(gamma(g), [(pid, 1.0) for pid, _ in arcs], rule)


def interval_planner() -> Patchwork:
    """The global linear section on the directed interval."""
    return _arc_planner(directed_interval(), [("all", "e")])


def circle_planner() -> Patchwork:
    """Two patches on the directed circle: pairs inside the top interval,
    then pairs inside the bottom interval minus the three shared pairs."""
    return _arc_planner(directed_circle(), [("top", "top"), ("bot", "bot")])


def loop_planner() -> Patchwork:
    """Constant paths on the diagonal; constant-velocity forward runs off it."""
    g = directed_loop()
    return _cycle_planner(g, gamma(g))
