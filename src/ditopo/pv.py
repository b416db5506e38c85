"""Two-process PV programs as planar ordered spaces.

Each process is a dot-separated sequence of P (lock) and V (unlock)
actions on binary semaphores; the k-th action of a process executes at
coordinate k of its axis.  Holding the same semaphore in both processes is
impossible, which shades one open rectangle per pair of same-semaphore
lock intervals.  Schedules are monotone staircases on a grid refinement of
the square that avoid the open rectangles; boundary contact is allowed.

Reachability runs on per-row int bitsets of the grid (``PVGamma``).  On an
nx x ny grid, rasterizing the rectangles costs O(rectangles x rows) once
per oracle, each new source O(ny) big-int operations (one row sweep), and
each cached source (nx+1)(ny+1) bits.  A schedule is one backward sweep
plus a walk of nx+ny steps.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import InvalidPoint, PVSyntaxError, UnbalancedLocks, Unreachable
from .record import FrozenRecord, Record

_ACTION_RE = re.compile(r"^([PV])(\w+)$")


class Action(FrozenRecord):
    __slots__ = _fields = ("op", "semaphore")

    def __init__(self, op: str, semaphore: str):
        self.op = op    # "P" or "V"
        self.semaphore = semaphore

    def __str__(self):
        return f"{self.op}{self.semaphore}"


class PVProgram(FrozenRecord):
    __slots__ = _fields = ("process1", "process2")

    def __init__(self, process1: tuple, process2: tuple):
        self.process1 = process1
        self.process2 = process2

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.process1), len(self.process2)

    def process(self, idx: int) -> tuple:
        return self.process1 if idx == 1 else self.process2

    def __str__(self):
        return (".".join(map(str, self.process1)) + "|"
                + ".".join(map(str, self.process2)))


def _parse_actions(text: str) -> tuple:
    if text == "":
        return ()
    actions = []
    for token in text.split("."):
        m = _ACTION_RE.match(token)
        if not m:
            raise PVSyntaxError(f"bad action {token!r}; expected P<name> or V<name>")
        actions.append(Action(m.group(1), m.group(2)))
    return tuple(actions)


def _check_bracketing(actions: Sequence[Action], which: int) -> None:
    holding: set[str] = set()
    for a in actions:
        if a.op == "P":
            if a.semaphore in holding:
                raise UnbalancedLocks(
                    f"process {which} locks {a.semaphore!r} while already holding it")
            holding.add(a.semaphore)
        else:
            if a.semaphore not in holding:
                raise UnbalancedLocks(
                    f"process {which} releases {a.semaphore!r} without holding it")
            holding.remove(a.semaphore)
    if holding:
        raise UnbalancedLocks(f"process {which} ends still holding {sorted(holding)}")


def parse_pv(text: str) -> PVProgram:
    """Parse "actions|actions" with dot-separated P<name>/V<name> actions."""
    parts = text.split("|")
    if len(parts) != 2:
        raise PVSyntaxError("program must be two action sequences separated by '|'")
    p1, p2 = _parse_actions(parts[0]), _parse_actions(parts[1])
    _check_bracketing(p1, 1)
    _check_bracketing(p2, 2)
    return PVProgram(p1, p2)


# ---------------------------------------------------------------------------
# Forbidden regions
# ---------------------------------------------------------------------------

class Rect(FrozenRecord):
    """An open axis-aligned rectangle in program-step units."""

    __slots__ = _fields = ("semaphore", "x1", "x2", "y1", "y2")

    def __init__(self, semaphore: str, x1: int, x2: int, y1: int, y2: int):
        self.semaphore = semaphore
        self.x1 = x1
        self.x2 = x2
        self.y1 = y1
        self.y2 = y2

    def contains_open(self, x: float, y: float) -> bool:
        return self.x1 < x < self.x2 and self.y1 < y < self.y2

    def to_json(self) -> dict:
        return {"semaphore": self.semaphore,
                "x": [self.x1, self.x2], "y": [self.y1, self.y2]}


class ForbiddenRegion(Record):
    __slots__ = _fields = ("rectangles",)

    def __init__(self, rectangles: list):
        self.rectangles = rectangles

    def to_json(self) -> dict:
        return {"rectangles": [r.to_json() for r in self.rectangles]}


def _lock_intervals(actions: Sequence[Action]) -> dict:
    """semaphore -> list of open (P, V) coordinate intervals."""
    intervals: dict = {}
    pending: dict = {}
    for idx, a in enumerate(actions):
        coord = idx + 1
        if a.op == "P":
            pending[a.semaphore] = coord
        else:
            intervals.setdefault(a.semaphore, []).append((pending.pop(a.semaphore), coord))
    return intervals


def forbidden_regions(prog: PVProgram) -> ForbiddenRegion:
    """One open rectangle per same-semaphore pair of lock intervals."""
    iv1 = _lock_intervals(prog.process1)
    iv2 = _lock_intervals(prog.process2)
    rects = []
    for sem in sorted(set(iv1) & set(iv2)):
        for (x1, x2) in iv1[sem]:
            for (y1, y2) in iv2[sem]:
                rects.append(Rect(sem, x1, x2, y1, y2))
    return ForbiddenRegion(rects)


# ---------------------------------------------------------------------------
# Reachability on the grid
# ---------------------------------------------------------------------------

def _raster(boxes, r: int, nx: int, ny: int) -> tuple[list, list]:
    """Allowed-move masks of the grid with the open boxes (x1, x2, y1, y2),
    given in step units, removed: bit a of h[b] is set iff the move
    (a, b) -> (a+1, b) is allowed, bit a of v[b] iff (a, b) -> (a, b+1) is."""
    h = [(1 << nx) - 1] * (ny + 1)
    v = [(1 << (nx + 1)) - 1] * ny
    for x1, x2, y1, y2 in boxes:
        x1, x2, y1, y2 = x1 * r, x2 * r, y1 * r, y2 * r
        h_cut = ~(((1 << (x2 - x1)) - 1) << x1)            # x1 <= a < x2
        v_cut = ~(((1 << (x2 - x1 - 1)) - 1) << (x1 + 1))  # x1 < a < x2
        for b in range(y1 + 1, y2):
            h[b] &= h_cut
        for b in range(y1, y2):
            v[b] &= v_cut
    return h, v


def _sweep(h: list, v: list, a: int, b: int) -> list:
    """Rows of the nodes reachable from (a, b): bit i of row j is set iff
    (i, j) is reachable.  A monotone path enters each row once from below
    and then only moves right, so each row is a carry fill of the one
    below: s | (((s & m) + m) ^ m) extends every bit of s along the run of
    allowed moves in m that starts at it."""
    rows = [0] * len(h)
    s = 1 << a
    for j in range(b, len(h)):
        if j > b:
            s &= v[j - 1]
            if not s:
                break
        m = h[j]
        s |= ((s & m) + m) ^ m
        rows[j] = s
    return rows


class PVGamma:
    """Monotone staircase reachability over a grid refinement of the square.

    Grid indices count steps of 1/resolution in program-step units; queries
    must be grid-aligned.  A point strictly inside a forbidden rectangle is
    not a point of the space, so nothing is reachable from or to it.

    The rectangles are rasterized once into per-row masks of allowed moves,
    in O(rectangles x rows); so are their point reflections, on which
    reaching a node backwards is reaching its reflection forwards.  Each new
    source then costs one row sweep of O(ny) big-int operations and is
    cached as (nx+1)(ny+1) bits; ``membership`` on a cached source is one
    bit test.
    """

    def __init__(self, prog: PVProgram, resolution: int = 8):
        if resolution < 2:
            raise ValueError("resolution must be >= 2 subdivisions per step unit")
        self.prog = prog
        self.r = resolution
        self.rects = forbidden_regions(prog).rectangles
        n1, n2 = prog.shape
        self.nx = n1 * resolution
        self.ny = n2 * resolution
        boxes = [(q.x1, q.x2, q.y1, q.y2) for q in self.rects]
        self._h, self._v = _raster(boxes, resolution, self.nx, self.ny)
        self._back_h, self._back_v = _raster(
            [(n1 - x2, n1 - x1, n2 - y2, n2 - y1) for x1, x2, y1, y2 in boxes],
            resolution, self.nx, self.ny)
        self._reach_cache: dict = {}
        self._coreach_cache: dict = {}

    # grid index <-> step-unit coordinate

    def snap(self, point) -> tuple[int, int]:
        x, y = point
        a, b = x * self.r, y * self.r
        ia, ib = round(a), round(b)
        if abs(a - ia) > 1e-9 or abs(b - ib) > 1e-9:
            raise InvalidPoint(f"point {point!r} is not aligned to the 1/{self.r} grid")
        if not (0 <= ia <= self.nx and 0 <= ib <= self.ny):
            raise InvalidPoint(f"point {point!r} outside the program square")
        return ia, ib

    def valid_node(self, node: tuple[int, int]) -> bool:
        a, b = node
        r = self.r
        return not any(q.x1 * r < a < q.x2 * r and q.y1 * r < b < q.y2 * r
                       for q in self.rects)

    def _reach(self, node: tuple[int, int]) -> list:
        """Row bitsets of the nodes reachable from node (see ``_sweep``).
        A node inside a rectangle has no allowed move, so it reaches only
        itself."""
        rows = self._reach_cache.get(node)
        if rows is None:
            rows = self._reach_cache[node] = _sweep(self._h, self._v, *node)
        return rows

    def _coreach(self, node: tuple[int, int]) -> list:
        """Row bitsets of the nodes that reach node, in reflected
        coordinates: bit nx-a of row ny-b is set iff (a, b) reaches node."""
        rows = self._coreach_cache.get(node)
        if rows is None:
            rows = self._coreach_cache[node] = _sweep(
                self._back_h, self._back_v, self.nx - node[0], self.ny - node[1])
        return rows

    def membership(self, x, y) -> bool:
        a = self.snap(x)
        b = self.snap(y)
        if a == b:
            return self.valid_node(a)
        # no node inside a rectangle reaches, or is reached from, another
        return bool(self._reach(a)[b[1]] >> b[0] & 1)


def pv_gamma(prog: PVProgram, resolution: int = 8) -> PVGamma:
    """Grid reachability oracle for a two-process program."""
    return PVGamma(prog, resolution)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class Schedule(Record):
    """A monotone staircase plus the interleaving of actions it induces."""

    __slots__ = _fields = ("program", "resolution", "points", "interleaving")

    def __init__(self, program: PVProgram, resolution: int,
                 points: tuple,         # grid corners in step units, monotone
                 interleaving: tuple):  # strings "1:Pa", "2:Va", ...
        self.program = program
        self.resolution = resolution
        self.points = points
        self.interleaving = interleaving

    def to_json(self) -> dict:
        return {
            "path": [[x, y] for (x, y) in self.points],
            "interleaving": list(self.interleaving),
        }


def schedule(prog: PVProgram, x, y, resolution: int = 8) -> Schedule:
    """A deterministic schedule from x to y, or Unreachable.

    Advances the coordinate with more remaining distance (diagonal-ish),
    sliding along rectangle boundaries when blocked; only moves that the
    backward reachability table approves are taken; ties prefer process 1.
    """
    oracle = PVGamma(prog, resolution)
    a = oracle.snap(x)
    b = oracle.snap(y)
    if not oracle.membership(x, y):
        raise Unreachable(f"no monotone schedule from {x!r} to {y!r}")
    good = oracle._coreach(b)   # holds only nodes <= b
    nx, ny, r = oracle.nx, oracle.ny, oracle.r
    actions: list[str] = []

    def advance(k: int, process: tuple, tag: str) -> None:
        # Locks live on open intervals: a P action takes effect when the
        # path departs its coordinate, a V when the path arrives at its.
        if k % r == 0 and k >= r and process[k // r - 1].op == "P":
            actions.append(f"{tag}:{process[k // r - 1]}")
        if (k + 1) % r == 0 and process[(k + 1) // r - 1].op == "V":
            actions.append(f"{tag}:{process[(k + 1) // r - 1]}")

    i, j = a
    points = [a]
    while (i, j) != b:
        # A blocked move has an end strictly inside a rectangle (each is at
        # least two grid steps wide), and no such node reaches b, so a move
        # to a node of good needs no check against the masks.
        right = i < b[0] and good[ny - j] >> (nx - i - 1) & 1
        up = j < b[1] and good[ny - j - 1] >> (nx - i) & 1
        # prefer the coordinate with more ground left; ties go to process 1
        if right and (not up or b[0] - i >= b[1] - j):
            advance(i, prog.process1, "1")
            i += 1
        else:
            advance(j, prog.process2, "2")
            j += 1
        points.append((i, j))
    coords = tuple((p[0] / r, p[1] / r) for p in points)
    return Schedule(prog, resolution, coords, tuple(actions))


def replay_interleaving(prog: PVProgram, interleaving: Sequence[str]) -> dict:
    """Run an interleaving against semaphore counters; returns the max
    counter value seen per semaphore (must stay <= 1 for binary semaphores)."""
    counters: dict = {}
    peak: dict = {}
    for item in interleaving:
        _, action_text = item.split(":", 1)
        op, sem = action_text[0], action_text[1:]
        if op == "P":
            counters[sem] = counters.get(sem, 0) + 1
        else:
            counters[sem] = counters.get(sem, 0) - 1
        peak[sem] = max(peak.get(sem, 0), counters[sem])
    return peak


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_svg(prog: PVProgram, sched: Optional[Schedule] = None, scale: int = 60) -> str:
    """The program square with shaded forbidden rectangles and a schedule."""
    n1, n2 = prog.shape
    w, h = max(n1, 1) * scale, max(n2, 1) * scale

    def sx(v: float) -> float:
        return v * scale

    def sy(v: float) -> float:
        return h - v * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 20}" height="{h + 20}">',
        f'<g transform="translate(10,10)">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white" stroke="black"/>',
    ]
    for q in forbidden_regions(prog).rectangles:
        parts.append(
            f'<rect x="{sx(q.x1)}" y="{sy(q.y2)}" width="{sx(q.x2 - q.x1)}" '
            f'height="{sx(q.y2 - q.y1)}" fill="#bbbbbb" stroke="none">'
            f'<title>{q.semaphore}</title></rect>')
    if sched is not None:
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for (x, y) in sched.points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="2"/>')
    parts.append("</g></svg>")
    return "\n".join(parts)
