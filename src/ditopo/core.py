"""Points, directed paths and patchwork planners.

A directed path on a graph is stored as a list of forward-traversed edge
segments; evaluation uses constant speed with respect to the summed
parameter spans (unit edge length), through the shared walk of
``ditopo.walk``.  Patchworks partition a reachability relation into ordered
patches, each carrying a local section.

The numeric testers live in ``ditopo.certify``.  Their names
(``check_section``, ``check_patch_continuity``, ``sample_pair``,
``path_sup_distance``, ...) still resolve here: the first lookup imports
``certify`` and keeps the name in this module, so a program that never
certifies never compiles the testers.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Optional

from .errors import (
    EndpointMismatch,
    InvalidPath,
    InvalidPoint,
    OutOfRange,
    PatchNotFound,
    Unreachable,
)
from .record import FrozenRecord, Record
from .walk import PARAM_TOL, _path_fractions, locate, span_table

# names defined in ``certify``, looked up there on first use (``__getattr__``)
_CERTIFY = frozenset((
    "ContinuityReport", "SectionCheckReport", "_at", "_joins", "check_patch_continuity",
    "check_section", "contraction_homotopy", "path_sup_distance", "sample_pair", "sup_distance"))


def __getattr__(name):
    if name not in _CERTIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certify
    value = globals()[name] = getattr(certify, name)
    return value


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
        edges = []
        for s in self.steps:
            edges.append(self.graph.edge(s.edge))  # raises on unknown edge
            if not (-PARAM_TOL <= s.t_from <= s.t_to <= 1.0 + PARAM_TOL):
                raise InvalidPath(f"step {s} is not a forward traversal inside [0,1]")
        # points_equal(point_at(prev end), point_at(next start)), read off the
        # parameters: within PARAM_TOL of an end, point_at gives that vertex
        for k in range(1, len(edges)):
            prev, nxt = self.steps[k - 1], self.steps[k]
            a, b = prev.t_to, nxt.t_from
            inner_a = PARAM_TOL < a < 1.0 - PARAM_TOL
            inner_b = PARAM_TOL < b < 1.0 - PARAM_TOL
            if inner_a or inner_b:
                incident = (inner_a and inner_b and prev.edge == nxt.edge
                            and abs(a - b) <= PARAM_TOL)
            else:
                e, f = edges[k - 1], edges[k]
                incident = ((e.src if a <= PARAM_TOL else e.dst)
                            == (f.src if b <= PARAM_TOL else f.dst))
            if not incident:
                p = self.graph.point_at(prev.edge, a)
                q = self.graph.point_at(nxt.edge, b)
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


