"""The numeric testers, and the metric and sampling side of graphs.

``check_section`` certifies section validity and ``check_patch_continuity``
per-patch Lipschitz continuity, on seeded samples of pairs.  The sup
distance between two sections is exact: it is read at the few fractions
where the distance between the paths can peak, not at evenly spaced
samples.

Planners for any space plug into the testers by providing path objects
with ``start``/``end``/``evaluate``/``evaluate_many``/``validate`` and an
oracle with ``membership``/``sample_point``/``sample_pair``/``distance``/
``sup_fractions``/``perturb_pair``.  ``sample_pair(rng)`` draws a pair
straight from the relation, with no retry: its law is that of two
independent ``sample_point`` draws conditioned on ``membership``.
``evaluate_many`` takes fractions in ascending order and returns the points
``evaluate`` would, in one walk along the path.  ``sup_fractions(p, q)``
returns ascending fractions from 0 to 1 between which the distance from
p(s) to q(s) is convex in s, so its maximum is attained at one of them.

The graph side of that protocol lives here too, since only the testers
use it: ``DirectedGraph.distance`` and ``sup_fractions`` and
``GammaOracle.sample_point``, ``sample_pair`` and ``perturb_pair`` are the
``graph_*`` and ``oracle_*`` functions below, set on those classes on
first use.  The testers call ``sample_pair`` and ``path_sup_distance``
through ``ditopo.core``, where they have always been looked up.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

from . import core
from .core import DiPath, EdgeInterior, Patchwork, Vertex, concatenate, points_equal
from .errors import NoGlobalSection, OutOfRange
from .record import Record
from .walk import PARAM_TOL, select_bit, span_fractions


# ---------------------------------------------------------------------------
# The undirected metric of a graph (``DirectedGraph.distance``, ...)
# ---------------------------------------------------------------------------

def graph_distance(g, a, b) -> float:
    """Shortest undirected path length with unit edge lengths.

    Reads the BFS table of ``a``'s vertex, or of both ends of ``a``'s
    edge; each table is computed once per graph.
    """
    inf = math.inf
    if isinstance(a, Vertex):
        if isinstance(b, Vertex):
            return g._distances_from(a.vertex).get(b.vertex, inf)
        f = g.edge(b.edge)
        da = g._distances_from(a.vertex)
        return min(da.get(f.src, inf) + b.t, da.get(f.dst, inf) + 1.0 - b.t)
    e = g.edge(a.edge)
    from_src, from_dst = g._distances_from(e.src), g._distances_from(e.dst)
    if isinstance(b, Vertex):
        return min(a.t + from_src.get(b.vertex, inf),
                   1.0 - a.t + from_dst.get(b.vertex, inf))
    f = g.edge(b.edge)
    at, bt = a.t, b.t
    ta, tb = 1.0 - at, 1.0 - bt
    return min(abs(at - bt) if a.edge == b.edge else inf,
               at + from_src.get(f.src, inf) + bt,
               at + from_src.get(f.dst, inf) + tb,
               ta + from_dst.get(f.src, inf) + bt,
               ta + from_dst.get(f.dst, inf) + tb)


def graph_sup_fractions(g, p: DiPath, q: DiPath) -> list[float]:
    """Ascending fractions from 0 to 1 between which ``distance(p(s), q(s))``
    is affine in s, so its maximum over [0, 1] is one of its values there.

    Between consecutive breakpoints of the two span tables, each point
    stays on one cell: a vertex, or an edge at a parameter affine in s.
    The distance is then the minimum of at most four affine terms (leave
    through an end of one cell, cross the BFS hop count, enter through
    an end of the other), plus |a - b| when both points share an edge.
    Added inside each interval: the zero of a - b, and each fraction
    where the term attaining the minimum changes.  O(1) work per
    interval, and there are at most steps(p) + steps(q) intervals.
    """
    cells_p, cells_q = _affine_cells(p), _affine_cells(q)
    out = [0.0]
    s0, i, j = 0.0, 0, 0
    while i < len(cells_p) and j < len(cells_q):
        (end_p, cell_p), (end_q, cell_q) = cells_p[i], cells_q[j]
        s1 = min(end_p, end_q)
        if s1 > s0:
            _distance_kinks(g, cell_p, cell_q, s0, s1, out)
            out.append(s1)
            s0 = s1
        i += end_p <= s1
        j += end_q <= s1
    return out


def _distance_kinks(g, cell_p, cell_q, s0: float, s1: float, out: list) -> None:
    """Append the fractions in (s0, s1) where the distance between a point
    on ``cell_p`` and one on ``cell_q`` (see ``_affine_cells``) stops being
    affine in s."""
    lines = []
    ports_q = _ports(g, cell_q)
    for u, cu, mu in _ports(g, cell_p):
        hops = g._distances_from(u)
        for w, cw, mw in ports_q:
            d = hops.get(w)
            if d is not None:
                lines.append((cu + d + cw, mu + mw))
    if not (isinstance(cell_p, tuple) and isinstance(cell_q, tuple)
            and cell_p[0] == cell_q[0]):
        _min_kinks(lines, s0, s1, out)
        return
    # same edge: |a - b| joins the minimum, one affine piece per sign of a - b
    dc, dm = cell_p[1] - cell_q[1], cell_p[2] - cell_q[2]
    zero = -dc / dm if dm else s0
    pieces = [(s0, zero), (zero, s1)] if s0 < zero < s1 else [(s0, s1)]
    for k, (lo, hi) in enumerate(pieces):
        if k:
            out.append(lo)
        sign = 1.0 if dc + dm * (lo + hi) / 2 >= 0.0 else -1.0
        _min_kinks(lines + [(sign * dc, sign * dm)], lo, hi, out)


def _ports(g, cell) -> list:
    """(vertex, c, m) for each way out of a cell: the point at fraction s
    lies c + m*s from that vertex along its own cell."""
    if isinstance(cell, str):
        return [(cell, 0.0, 0.0)]
    edge, c, m = cell
    e = g._edge_map[edge]
    return [(e.src, c, m), (e.dst, 1.0 - c, -m)]


def _affine_cells(path: DiPath) -> list:
    """(end fraction, cell) for each stretch of a path on one cell, in order;
    the last ends at 1.0.  A cell is a vertex id, or (edge id, c, m) for the
    edge parameter c + m*s at fraction s."""
    table = path._spans()
    total = table[-1]
    if total <= 0.0:
        p = path.start()
        return [(1.0, p.vertex if isinstance(p, Vertex) else (p.edge, p.t, 0.0))]
    return [(f, (st.edge, st.t_from - a, total))
            for st, a, f in zip(path.steps, table, span_fractions(table)[1:])
            if st.span > 0.0]


def _min_kinks(lines: list, s0: float, s1: float, out: list) -> None:
    """Append, ascending, the fractions in (s0, s1) where the minimum of the
    affine functions ``c + m*s`` given as (c, m) can change which one
    attains it: each crossing of two lines that both attain the minimum
    there, up to 1e-9.  The tolerance only adds fractions, so rounding in
    the crossings cannot drop a kink; O(lines^3), with at most five lines."""
    kinks = []
    for k, (c1, m1) in enumerate(lines):
        for c2, m2 in lines[:k]:
            if m1 != m2:
                x = (c2 - c1) / (m1 - m2)
                if s0 < x < s1:
                    v = c1 + m1 * x - 1e-9
                    if all(v <= c + m * x for c, m in lines):
                        kinks.append(x)
    out.extend(sorted(kinks))


# ---------------------------------------------------------------------------
# Sampling a graph's relation (``GammaOracle.sample_pair``, ...)
# ---------------------------------------------------------------------------

def oracle_sample_point(oracle, rng: random.Random):
    """A uniform cell, then a uniform parameter on an edge cell."""
    g = oracle.graph
    idx = rng.randrange(len(g.vertices) + len(g.edges))
    if idx < len(g.vertices):
        return Vertex(g.vertices[idx])
    return EdgeInterior(g.edges[idx - len(g.vertices)].id, _edge_parameter(rng))


def oracle_sample_pair(oracle, rng: random.Random) -> tuple:
    """A pair (x, y) drawn from the relation with no retry.

    The distribution is that of two independent ``sample_point`` draws
    conditioned on ``membership``.  Cells are numbered vertices first,
    then edges; L(u) is the set of cells vertex u reaches (the vertices
    it reaches and the edges whose source it reaches), and the exit
    vertex of a cell is the vertex itself or the edge's destination.
    The x cell is drawn with weight 2 |L(exit)|, plus 1 for an edge e
    whose destination does not reach its source: that extra half pair
    is y on e itself with x.t <= y.t, drawn as two sorted parameters.
    Otherwise y is uniform on L(exit), and each edge cell gets a fresh
    uniform parameter.  One ``randrange`` over the total weight picks
    both cells: the offset r into the x cell's weight gives y = the
    (r // 2)-th cell of L, or the extra unit when r // 2 = |L|.

    The tables are built on the first call and kept on the oracle: one
    (V + E)-bit set of L per strongly connected component, filled by the
    same sinks-first pass as the vertex bitsets (O(E) big-int ORs, so
    O(E (V + E) / 64) word operations), plus three lists of V + E
    entries.  Memory is O(components x (V + E) / 64) words.  A draw is a
    bisection over the cells plus ``select_bit`` on L: O(log(V + E))
    steps and O((V + E) / 64) words in all.
    """
    if oracle._pair_table is None:
        oracle._pair_table = _build_pair_table(oracle)
    cum, reach, cells = oracle._pair_table
    r = rng.randrange(cum[-1])
    c = bisect_right(cum, r) - 1
    k = (r - cum[c]) >> 1
    if k == reach[c].bit_count():  # the extra unit: y on x's edge, after x
        s, t = sorted((_edge_parameter(rng), _edge_parameter(rng)))
        return EdgeInterior(cells[c], s), EdgeInterior(cells[c], t)
    return _cell_point(cells[c], rng), _cell_point(cells[select_bit(reach[c], k)], rng)


def _build_pair_table(oracle) -> tuple:
    """(cumulative cell weights from 0, the L bitset of each cell's exit,
    each cell as a Vertex or an edge id)."""
    g = oracle.graph
    nv = len(g.vertices)
    own = {v: 1 << i for i, v in enumerate(g.vertices)}
    for j, e in enumerate(g.edges):
        own[e.src] |= 1 << (nv + j)
    reach_of = oracle._closure(own)
    reach = [reach_of[v] for v in g.vertices] + [reach_of[e.dst] for e in g.edges]
    weights = [2 * bits.bit_count() + (c >= nv and not bits >> c & 1)
               for c, bits in enumerate(reach)]
    cells = [Vertex(v) for v in g.vertices] + [e.id for e in g.edges]
    return list(accumulate(weights, initial=0)), reach, cells


def oracle_perturb_pair(oracle, pair, eps: float, rng: random.Random):
    """Jitter each endpoint within its own cell by at most eps."""
    def jitter(p):
        if isinstance(p, Vertex):
            return p
        t = p.t + rng.uniform(-eps, eps)
        t = min(max(t, 1e-12), 1.0 - 1e-12)
        return EdgeInterior(p.edge, t)
    x, y = pair
    return jitter(x), jitter(y)


def _edge_parameter(rng: random.Random) -> float:
    """A uniform parameter strictly inside (0, 1): ``rng.random()``, drawn
    again in the 2^-53 case that it is 0."""
    return rng.random() or _edge_parameter(rng)


def _cell_point(cell, rng: random.Random):
    """The vertex itself, or a point at a uniform parameter of the edge id."""
    return cell if isinstance(cell, Vertex) else EdgeInterior(cell, _edge_parameter(rng))


# ---------------------------------------------------------------------------
# Sup distance between paths
# ---------------------------------------------------------------------------

def path_sup_distance(p, q, oracle) -> float:
    """The exact sup over s in [0, 1] of ``oracle.distance(p(s), q(s))``.

    The distance is convex between consecutive fractions of
    ``oracle.sup_fractions(p, q)``, so its maximum is one of its values
    there; each path is walked once over those fractions.
    """
    fractions = oracle.sup_fractions(p, q)
    distance = oracle.distance
    worst = 0.0
    for a, b in zip(p.evaluate_many(fractions), q.evaluate_many(fractions)):
        worst = max(worst, distance(a, b))
    return worst


def sup_distance(p: DiPath, q: DiPath) -> float:
    """Sup metric between two paths on the same graph, exact."""
    if p.graph is not q.graph and p.graph != q.graph:
        raise ValueError("paths live on different graphs")
    return core.path_sup_distance(p, q, p.graph)


# ---------------------------------------------------------------------------
# Section and continuity testers
# ---------------------------------------------------------------------------

class SectionCheckReport(Record):
    __slots__ = _fields = ("samples", "membership_violations", "endpoint_violations",
                           "path_violations")

    def __init__(self, samples: int, membership_violations: Optional[list] = None,
                 endpoint_violations: Optional[list] = None,
                 path_violations: Optional[list] = None):
        self.samples = samples
        self.membership_violations = [] if membership_violations is None else membership_violations
        self.endpoint_violations = [] if endpoint_violations is None else endpoint_violations
        self.path_violations = [] if path_violations is None else path_violations

    @property
    def total_violations(self) -> int:
        return (len(self.membership_violations)
                + len(self.endpoint_violations)
                + len(self.path_violations))

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "violations": self.total_violations,
            "membership_violations": self.membership_violations[:10],
            "endpoint_violations": self.endpoint_violations[:10],
            "path_violations": self.path_violations[:10],
        }


def sample_pair(oracle, rng: random.Random):
    """One pair drawn straight from the reachability relation:
    ``oracle.sample_pair(rng)``, two ``sample_point`` draws conditioned on
    ``membership``.  The certifiers draw every pair through here."""
    return oracle.sample_pair(rng)


def _at(graph, edge: str, t: float, p) -> bool:
    """``points_equal(graph.point_at(edge, t), p)`` without building the
    point: within PARAM_TOL of an end, the point is that end's vertex."""
    if t <= PARAM_TOL:
        return isinstance(p, Vertex) and p.vertex == graph.edge(edge).src
    if t >= 1.0 - PARAM_TOL:
        return isinstance(p, Vertex) and p.vertex == graph.edge(edge).dst
    return isinstance(p, EdgeInterior) and p.edge == edge and abs(t - p.t) <= PARAM_TOL


def _joins(path, x, y) -> bool:
    """``points_equal(path.start(), x) and points_equal(path.end(), y)``; a
    DiPath with steps compares its first and last step with x and y."""
    if type(path) is not DiPath or not path.steps:
        return points_equal(path.start(), x) and points_equal(path.end(), y)
    first, last = path.steps[0], path.steps[-1]
    return (_at(path.graph, first.edge, first.t_from, x)
            and _at(path.graph, last.edge, last.t_to, y))


def check_section(planner: Patchwork, oracle, samples: int = 1000, seed: int = 0) -> SectionCheckReport:
    """Sample pairs from the relation and test partition + section exactness.

    For each pair: exactly one patch must claim it, the section path must
    run from x to y (parameters within 1e-9), and the path must satisfy all
    structural invariants.  Violations are returned as data, not raised.
    """
    rng = random.Random(seed)
    report = SectionCheckReport(samples=samples)
    for _ in range(samples):
        x, y = core.sample_pair(oracle, rng)
        claiming = planner.claiming_patches(x, y)
        if len(claiming) != 1:
            report.membership_violations.append(
                {"pair": (repr(x), repr(y)), "claimed_by": [p.id for p in claiming]})
            continue
        patch = claiming[0]
        try:
            path = patch.section(x, y)
            path.validate()
        except Exception as exc:  # noqa: BLE001 - violations are data here
            report.path_violations.append(
                {"pair": (repr(x), repr(y)), "patch": patch.id, "error": str(exc)})
            continue
        if not _joins(path, x, y):
            report.endpoint_violations.append(
                {"pair": (repr(x), repr(y)), "patch": patch.id,
                 "got": (repr(path.start()), repr(path.end()))})
    return report


class ContinuityReport(Record):
    __slots__ = _fields = ("patch_id", "pairs_requested", "pairs_used", "lipschitz_bound",
                           "max_ratio", "violations", "worst")

    def __init__(self, patch_id: str, pairs_requested: int, pairs_used: int,
                 lipschitz_bound: float, max_ratio: float, violations: Optional[list] = None,
                 worst: Optional[dict] = None):
        self.patch_id = patch_id
        self.pairs_requested = pairs_requested
        self.pairs_used = pairs_used
        self.lipschitz_bound = lipschitz_bound
        self.max_ratio = max_ratio
        self.violations = [] if violations is None else violations
        self.worst = worst

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        """No sampled pair survived the filters, so ``ok`` certifies nothing."""
        return self.pairs_used == 0

    def to_json(self) -> dict:
        return {
            "patch": self.patch_id,
            "pairs_requested": self.pairs_requested,
            "pairs_used": self.pairs_used,
            "vacuous": self.vacuous,
            "lipschitz_bound": self.lipschitz_bound,
            "max_ratio": self.max_ratio,
            "violations": len(self.violations),
            "worst": self.worst,
        }


def check_patch_continuity(planner: Patchwork, patch_id: str,
                           pair_samples: int = 200, perturbation: float = 0.01,
                           seed: int = 0, oracle=None) -> ContinuityReport:
    """Sampled Lipschitz certificate for one patch's section.

    Pairs are drawn from the patch; each endpoint is jittered within its
    own cell by at most min(perturbation, d(x, y) / 8), which keeps the
    perturbed pair in the combinatorial regime the pair already occupies
    (sections here are continuous, but not uniformly so near regime
    boundaries, so fixed-scale jitter would manufacture unbounded ratios
    that no declared constant could cover).  Perturbed pairs that leave the
    relation or the patch are discarded.  The pairs are sampled, but the
    sup distance between the two sections of a pair is exact
    (``path_sup_distance``).  Reports the max observed ratio
    sup_distance / (d(x,x') + d(y,y')) and any sample exceeding the
    declared bound + 1e-6.
    """
    if oracle is None:
        oracle = planner.space
    if oracle is None:
        raise ValueError("no oracle supplied and the planner carries none")
    patch = planner.patch(patch_id)
    bound = patch.lipschitz_bound
    rng = random.Random(seed)
    report = ContinuityReport(patch_id=patch_id, pairs_requested=pair_samples,
                              pairs_used=0, lipschitz_bound=bound, max_ratio=0.0)
    for _ in range(pair_samples):
        x, y = core.sample_pair(oracle, rng)
        if not patch.membership(x, y):
            continue
        eps = min(perturbation, oracle.distance(x, y) / 8.0)
        if eps <= 0.0:
            continue
        x2, y2 = oracle.perturb_pair((x, y), eps, rng)
        moved = oracle.distance(x, x2) + oracle.distance(y, y2)
        if moved <= 0.0:
            continue
        if not (oracle.membership(x2, y2) and patch.membership(x2, y2)):
            continue
        p = patch.section(x, y)
        q = patch.section(x2, y2)
        sup = core.path_sup_distance(p, q, oracle)
        ratio = sup / moved
        report.pairs_used += 1
        sample = {"pair": (repr(x), repr(y)), "perturbed": (repr(x2), repr(y2)),
                  "sup": sup, "moved": moved, "ratio": ratio}
        if ratio > report.max_ratio:
            report.max_ratio = ratio
            report.worst = sample
        if sup > bound * moved + 1e-6:
            report.violations.append(sample)
    return report


def contraction_homotopy(planner: Patchwork, u: DiPath, t: float) -> DiPath:
    """Deform a path toward the planner's canonical path between its ends.

    At t = 1 the result is u itself; at t = 0 it is the section path from
    u(0) to u(1); in between, the first and last fractions t/2 of u are
    kept and the middle is replaced by the section path between u(t/2) and
    u(1 - t/2).  Requires a single-patch (global) section.
    """
    if len(planner.patches) != 1:
        raise NoGlobalSection(f"planner has {len(planner.patches)} patches; need exactly 1")
    if not (0.0 <= t <= 1.0):
        raise OutOfRange(f"homotopy parameter {t} outside [0,1]")
    section = planner.patches[0].section
    if t >= 1.0:
        return u
    left = u.subpath(0.0, t / 2.0)
    right = u.subpath(1.0 - t / 2.0, 1.0)
    mid = section(left.end(), right.start())
    return concatenate(concatenate(left, mid), right)
