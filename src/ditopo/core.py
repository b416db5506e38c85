"""Points, directed paths, patchwork planners, and the numeric testers.

A directed path on a graph is stored as a list of forward-traversed edge
segments; evaluation uses constant speed with respect to the summed
parameter spans (unit edge length).  Patchworks partition a reachability
relation into ordered patches, each carrying a local section; the testers
certify section validity and per-patch Lipschitz continuity on seeded
samples of pairs.  The sup distance between two sections is exact: it is
read at the few fractions where the distance between the paths can peak,
not at evenly spaced samples.

Planners for other spaces (products, sphere boundaries) plug into the same
testers by providing path objects with ``start``/``end``/``evaluate``/
``evaluate_many``/``validate`` and an oracle with ``membership``/
``sample_point``/``sample_pair``/``distance``/``sup_fractions``/
``perturb_pair``.  ``sample_pair(rng)`` draws a pair straight from the
relation, with no retry: its law is that of two independent
``sample_point`` draws conditioned on ``membership``.  ``evaluate_many``
takes fractions in ascending order and returns the points ``evaluate``
would, in one walk along the path; ``span_table`` and ``locate`` below are
the shared walk.  ``sup_fractions(p, q)`` returns ascending fractions from
0 to 1 between which the distance from p(s) to q(s) is convex in s, so its
maximum is attained at one of them.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Optional

from .errors import (
    EndpointMismatch,
    InvalidPath,
    InvalidPoint,
    NoGlobalSection,
    OutOfRange,
    PatchNotFound,
    Unreachable,
)
from .record import FrozenRecord, Record

# Tolerance on edge parameters; vertex identity is exact.
PARAM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class Vertex(FrozenRecord):
    __slots__ = _fields = ("vertex",)

    def __init__(self, vertex: str):
        self.vertex = vertex

    def __repr__(self):
        return f"v:{self.vertex}"


class EdgeInterior(FrozenRecord):
    __slots__ = _fields = ("edge", "t")

    def __init__(self, edge: str, t: float):
        if not (0.0 < t < 1.0):
            raise InvalidPoint(f"edge parameter must lie strictly in (0,1), got {t}")
        self.edge = edge
        self.t = t

    def __repr__(self):
        return f"e:{self.edge}:{self.t:g}"


GraphPoint = Vertex | EdgeInterior


def points_equal(a, b, tol: float = PARAM_TOL) -> bool:
    """Equality up to `tol` on edge/real parameters; vertex ids are exact.

    Handles graph points, bare floats, and (nested) tuples of either, so the
    same testers work for product and sphere planners.
    """
    if isinstance(a, Vertex) and isinstance(b, Vertex):
        return a.vertex == b.vertex
    if isinstance(a, EdgeInterior) and isinstance(b, EdgeInterior):
        return a.edge == b.edge and abs(a.t - b.t) <= tol
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(points_equal(x, y, tol) for x, y in zip(a, b))
    return False


def format_point(p: GraphPoint) -> str:
    if isinstance(p, Vertex):
        return f"v:{p.vertex}"
    return f"e:{p.edge}:{p.t!r}"


def parse_point(text: str) -> GraphPoint:
    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "v":
        return Vertex(parts[1])
    if len(parts) == 3 and parts[0] == "e":
        return EdgeInterior(parts[1], float(parts[2]))
    raise InvalidPoint(f"cannot parse point {text!r}; expected 'v:<id>' or 'e:<id>:<t>'")


# ---------------------------------------------------------------------------
# Directed paths
# ---------------------------------------------------------------------------

def span_table(spans: Iterable[float]) -> list[float]:
    """Cumulative spans ``[0, s0, s0 + s1, ...]``, added left to right.

    The last entry is the total.  Entries never decrease when no span is
    negative, as on every valid path.
    """
    return list(accumulate(spans, initial=0.0))


def locate(table: list[float], fractions: Iterable[float]) -> list[tuple[int, float]]:
    """(segment index, offset into it) at each fraction of a span table's total.

    ``fractions`` must ascend inside [0, 1].  Segment i is the first whose
    end ``table[i + 1]`` is at or beyond the target, else the last one; the
    offset ``target - table[i]`` is left unclamped.  The walk never moves
    backwards: each fraction is a bisection from the previous segment on,
    O(log segments), so a walk costs O(fractions * log segments).
    """
    total = table[-1]
    segments = len(table) - 1
    out = []
    i, prev = 0, 0.0
    for s in fractions:
        if s < prev:
            raise ValueError(f"fractions must ascend; {s} follows {prev}")
        prev = s
        target = s * total
        i = bisect_left(table, target, i + 1, segments) - 1
        out.append((i, target - table[i]))
    return out


def select_bit(bits: int, k: int) -> int:
    """The position of the k-th (from 0) set bit of ``bits``.

    Bisection: count the set bits of the low half, then keep the half that
    holds the k-th one.  The int halves at every step, so an n-bit select
    costs O(log n) steps and O(n) bit operations in all.
    """
    pos, width = 0, bits.bit_length()
    while width > 1:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        count = low.bit_count()
        if k < count:
            bits, width = low, half
        else:
            bits, k, pos, width = bits >> half, k - count, pos + half, width - half
    return pos


def span_fractions(table: list[float]) -> list[float]:
    """Each entry of a span table as a fraction of its total, ending at
    exactly 1.0: the path's breakpoints.  A path of zero length has [0, 1]."""
    total = table[-1]
    if total <= 0.0:
        return [0.0, 1.0]
    fractions = [x / total for x in table]
    fractions[-1] = 1.0
    return fractions


def _path_fractions(fractions: Iterable[float]) -> list[float]:
    """The fractions clamped to [0, 1]; OutOfRange if one is off by more
    than PARAM_TOL."""
    fractions = list(fractions)
    if fractions and not (0.0 <= min(fractions) and max(fractions) <= 1.0):
        for s in fractions:
            if not (-PARAM_TOL <= s <= 1.0 + PARAM_TOL):
                raise OutOfRange(f"path parameter {s} outside [0,1]")
        fractions = [min(max(s, 0.0), 1.0) for s in fractions]
    return fractions


class Step(FrozenRecord):
    """One forward traversal of (part of) an edge."""

    __slots__ = _fields = ("edge", "t_from", "t_to")

    def __init__(self, edge: str, t_from: float, t_to: float):
        self.edge = edge
        self.t_from = t_from
        self.t_to = t_to

    @property
    def span(self) -> float:
        return self.t_to - self.t_from


class DiPath:
    """A finite monotone piecewise-edge path with constant-speed evaluation.

    ``graph`` must provide ``edge(id)`` returning an object with ``src``/
    ``dst`` and ``point_at(edge_id, t)`` mapping boundary parameters to
    vertices.  A path with no steps is constant and carries its point in
    ``basepoint``.  The cumulative-span table is built on the first
    evaluation, length or subpath, so paths that are only checked at their
    ends never pay for it.
    """

    __slots__ = ("graph", "steps", "basepoint", "_cum")

    def __init__(self, graph, steps: Iterable[Step] = (), basepoint: Optional[GraphPoint] = None):
        self.graph = graph
        self.steps = tuple(steps)
        self.basepoint = basepoint
        self._cum: Optional[list[float]] = None
        if not self.steps and basepoint is None:
            raise InvalidPath("a path needs steps or a basepoint")
        if self.steps and basepoint is not None:
            raise InvalidPath("basepoint is only for constant (step-free) paths")

    @classmethod
    def constant(cls, graph, point: GraphPoint) -> "DiPath":
        if isinstance(point, EdgeInterior):
            return cls(graph, [Step(point.edge, point.t, point.t)])
        return cls(graph, (), basepoint=point)

    @classmethod
    def from_steps(cls, graph, steps: Iterable[tuple]) -> "DiPath":
        return cls(graph, [Step(e, a, b) for (e, a, b) in steps])

    def validate(self) -> None:
        """Raise InvalidPath unless every structural invariant holds."""
        if not self.steps:
            if not isinstance(self.basepoint, Vertex):
                raise InvalidPath("step-free paths must sit at a vertex")
            if self.basepoint.vertex not in self.graph.vertex_set:
                raise InvalidPath(f"unknown vertex {self.basepoint.vertex!r}")
            return
        for s in self.steps:
            self.graph.edge(s.edge)  # raises on unknown edge
            if not (-PARAM_TOL <= s.t_from <= s.t_to <= 1.0 + PARAM_TOL):
                raise InvalidPath(f"step {s} is not a forward traversal inside [0,1]")
        for prev, nxt in zip(self.steps, self.steps[1:]):
            p = self.graph.point_at(prev.edge, prev.t_to)
            q = self.graph.point_at(nxt.edge, nxt.t_from)
            if not points_equal(p, q):
                raise InvalidPath(f"steps {prev} and {nxt} are not incident ({p} vs {q})")

    def start(self) -> GraphPoint:
        if not self.steps:
            return self.basepoint
        s = self.steps[0]
        return self.graph.point_at(s.edge, s.t_from)

    def end(self) -> GraphPoint:
        if not self.steps:
            return self.basepoint
        s = self.steps[-1]
        return self.graph.point_at(s.edge, s.t_to)

    def _spans(self) -> list[float]:
        """The cumulative-span table, built on first use: O(steps)."""
        if self._cum is None:
            self._cum = span_table(st.span for st in self.steps)
        return self._cum

    def length(self) -> float:
        """Total parameter span (unit edge length): the table's last entry,
        O(steps) on first use and O(1) after."""
        return self._spans()[-1]

    def evaluate(self, s: float) -> GraphPoint:
        """The point at fraction s of the total span, at constant speed.

        O(steps) once for the table, then O(log steps) per point.
        """
        return self.evaluate_many((s,))[0]

    def evaluate_many(self, fractions: Iterable[float]) -> list[GraphPoint]:
        """``evaluate`` at each of the ascending fractions, in one walk.

        O(steps) once for the table, then O(log steps) per fraction.
        """
        fractions = _path_fractions(fractions)
        table = self._spans()
        if table[-1] <= 0.0:
            return [self.start()] * len(fractions)
        steps, point_at = self.steps, self.graph.point_at
        points = []
        for i, offset in locate(table, fractions):
            st = steps[i]
            span = st.span
            t = st.t_from if span <= 0.0 else st.t_from + min(max(offset, 0.0), span)
            points.append(point_at(st.edge, t))
        return points

    def subpath(self, s0: float, s1: float) -> "DiPath":
        """The portion between fractions s0 <= s1 of the total span."""
        if not (0.0 <= s0 <= s1 <= 1.0 + PARAM_TOL):
            raise OutOfRange(f"subpath fractions ({s0}, {s1}) outside 0 <= s0 <= s1 <= 1")
        table = self._spans()
        total = table[-1]
        if total <= 0.0 or abs(s1 - s0) <= PARAM_TOL:
            return DiPath.constant(self.graph, self.evaluate(s0))
        lo, hi = s0 * total, s1 * total
        out: list[Step] = []
        for st, a, b in zip(self.steps, table, table[1:]):
            if b <= lo or a >= hi:
                continue
            t_from = st.t_from + max(lo - a, 0.0)
            t_to = st.t_from + min(hi - a, st.span)
            if t_to > t_from:
                out.append(Step(st.edge, t_from, t_to))
        if not out:
            return DiPath.constant(self.graph, self.evaluate(s0))
        return DiPath(self.graph, out)

    def to_json(self) -> dict:
        doc = {"steps": [{"edge": s.edge, "from": s.t_from, "to": s.t_to} for s in self.steps]}
        if not self.steps:
            doc["at"] = format_point(self.basepoint)
        return doc

    @classmethod
    def from_json(cls, graph, doc: dict) -> "DiPath":
        steps = [Step(d["edge"], float(d["from"]), float(d["to"])) for d in doc.get("steps", [])]
        if steps:
            return cls(graph, steps)
        return cls(graph, (), basepoint=parse_point(doc["at"]))

    def __repr__(self):
        if not self.steps:
            return f"DiPath(const {self.basepoint!r})"
        inner = ", ".join(f"({s.edge},{s.t_from:g},{s.t_to:g})" for s in self.steps)
        return f"DiPath[{inner}]"


def concatenate(p: DiPath, q: DiPath) -> DiPath:
    """p followed by q; the endpoint of p must equal the start of q.

    Adjacent same-edge steps meeting mid-edge at the same parameter are
    merged into one step.
    """
    if p.graph is not q.graph and p.graph != q.graph:
        raise EndpointMismatch("paths live on different graphs")
    if not points_equal(p.end(), q.start()):
        raise EndpointMismatch(f"path ends at {p.end()!r} but next starts at {q.start()!r}")
    if not p.steps:
        return q
    if not q.steps:
        return p
    steps = list(p.steps)
    rest = list(q.steps)
    last, first = steps[-1], rest[0]
    if last.edge == first.edge and abs(last.t_to - first.t_from) <= PARAM_TOL:
        steps[-1] = Step(last.edge, last.t_from, first.t_to)
        rest = rest[1:]
    return DiPath(p.graph, steps + rest)


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
    return path_sup_distance(p, q, p.graph)


# ---------------------------------------------------------------------------
# Patchworks and complexity reports
# ---------------------------------------------------------------------------

class Patch(Record):
    """One piece of a patchwork: a membership predicate plus local section."""

    __slots__ = _fields = ("id", "membership", "section", "lipschitz_bound")

    def __init__(self, id: str, membership: Callable[[object, object], bool],
                 section: Callable[[object, object], object], lipschitz_bound: float):
        self.id = id
        self.membership = membership
        self.section = section
        self.lipschitz_bound = lipschitz_bound


class Patchwork(Record):
    """An ordered partition of a reachability relation into patches.

    Order is significant: it records the closed-prefix ordering of the
    construction; ``regular`` asserts that ordering analytically (it is not
    verified numerically).  ``space`` optionally carries the oracle the
    planner was built for, so testers can default to it.
    """

    __slots__ = _fields = ("patches", "regular", "space")

    def __init__(self, patches: list[Patch], regular: bool = False, space: object = None):
        self.patches = patches
        self.regular = regular
        self.space = space

    def patch_ids(self) -> list[str]:
        return [p.id for p in self.patches]

    def patch(self, patch_id: str) -> Patch:
        for p in self.patches:
            if p.id == patch_id:
                return p
        raise PatchNotFound(f"no patch {patch_id!r}; have {self.patch_ids()}")

    def claiming_patches(self, x, y) -> list[Patch]:
        return [p for p in self.patches if p.membership(x, y)]

    def claim(self, x, y) -> Patch:
        """The first of the patches containing (x, y); Unreachable if none does."""
        claiming = self.claiming_patches(x, y)
        if not claiming:
            raise Unreachable(f"no patch contains ({x!r}, {y!r})")
        return claiming[0]

    def plan(self, x, y):
        """The section value of the unique patch containing (x, y)."""
        return self.claim(x, y).section(x, y)


class Reason(str, Enum):
    UNIQUE_TRACES = "UniqueTraces"
    FINITE_CONFLICT_TWO_PATCH = "FiniteConflictTwoPatch"
    STRONGLY_CONNECTED_FORMULA = "StronglyConnectedFormula"
    GENERAL_THREE_PATCH = "GeneralThreePatch"
    KNOWN_BUILTIN = "KnownBuiltin"


class DiTCReport(Record):
    """Certified bounds on directed topological complexity."""

    __slots__ = _fields = ("lower", "upper", "exact", "reason", "patchwork")

    def __init__(self, lower: int, upper: int, exact: bool, reason: Reason,
                 patchwork: Optional[Patchwork] = None):
        self.lower = lower
        self.upper = upper
        self.exact = exact
        self.reason = reason
        self.patchwork = patchwork
        if not (1 <= lower <= upper):
            raise ValueError(f"bad bounds: {lower}..{upper}")
        if exact != (lower == upper):
            raise ValueError("exact flag must mirror lower == upper")
        if patchwork is not None and len(patchwork.patches) != upper:
            raise ValueError("witness patch count must equal the upper bound")

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "reason": self.reason.value,
        }


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
        x, y = sample_pair(oracle, rng)
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
        x, y = sample_pair(oracle, rng)
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
        sup = path_sup_distance(p, q, oracle)
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
