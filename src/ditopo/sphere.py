"""The boundary of the (n+1)-cube with coordinatewise order.

Points are (n+1)-vectors in [0,1] with at least one coordinate at 0 or 1.
Reachability means a coordinatewise non-decreasing path inside the
boundary.  It has a closed form: x reaches y iff x <= y and either the two
points share a facet or x_i = 0 and y_j = 1 for some i != j.  ``SphereGamma``
applies it to the points as given; ``sphere_gamma`` applies it to inputs
quantized at a fixed denominator, after exact pre-checks that keep strictly
decreasing pairs out.

For n = 1 the square boundary splits into two monotone arcs meeting at the
extreme corners, which gives a two-patch planner shaped like the
directed-circle construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import (
    DiTCReport,
    Patch,
    Patchwork,
    Reason,
    _path_fractions,
    locate,
    span_fractions,
    span_table,
)
from .errors import DimensionMismatch, InvalidPoint

QUANT = 16          # fixed input quantization denominator
_COORD_TOL = 1e-9


def check_sphere_point(p: Sequence[float], n: int) -> tuple:
    """Validate and normalize a boundary point of the (n+1)-cube."""
    if len(p) != n + 1:
        raise DimensionMismatch(f"expected {n + 1} coordinates, got {len(p)}")
    snapped = []
    for c in p:
        if abs(c) <= _COORD_TOL:
            c = 0.0
        elif abs(c - 1.0) <= _COORD_TOL:
            c = 1.0
        if not (0.0 <= c <= 1.0):
            raise InvalidPoint(f"coordinate {c} outside [0,1]")
        snapped.append(float(c))
    if not any(c in (0.0, 1.0) for c in snapped):
        raise InvalidPoint(f"point {p!r} lies in the open cube, not on its boundary")
    return tuple(snapped)


def _reaches(x: tuple, y: tuple, top) -> bool:
    """The closed form on the boundary of [0, top]^(n+1), in O(n): x <= y,
    and a shared facet (x = y among them) or x_i = 0, y_j = top, i != j."""
    shared = False
    zeros, tops = [], []
    for i in range(len(x)):
        a, b = x[i], y[i]
        if b < a:
            return False
        if a == 0:
            if b == 0:
                shared = True
            zeros.append(i)
        if b == top:
            if a == top:
                shared = True
            tops.append(i)
    if shared:
        return True
    for i in zeros:
        for j in tops:
            if i != j:
                return True
    return False


def sphere_gamma(n: int, x: Sequence[float], y: Sequence[float], grid: int = QUANT) -> bool:
    """Whether a monotone boundary path joins x to y.

    Pairs that are not decided by the exact pre-checks (decreasing, equal,
    on a shared facet) are decided by the closed form on the points
    quantized to the 1/16 lattice.  ``grid`` must be a multiple of 16; it
    does not change any answer.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if grid < QUANT or grid % QUANT != 0:
        raise ValueError(f"grid must be a positive multiple of {QUANT}")
    x = check_sphere_point(x, n)
    y = check_sphere_point(y, n)
    if any(b < a - _COORD_TOL for a, b in zip(x, y)):
        return False
    if x == y:
        return True
    # shared-face fast path: both stuck on the same facet, rest is a box
    for a, b in zip(x, y):
        if a == b and a in (0.0, 1.0):
            return True
    a = tuple(round(c * QUANT) for c in x)
    b = tuple(round(c * QUANT) for c in y)
    return _reaches(a, b, QUANT)


def sphere_ditc(n: int) -> DiTCReport:
    """Directed complexity of the n-sphere boundary: the known constant 2."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return DiTCReport(2, 2, True, Reason.KNOWN_BUILTIN, None)


def sample_boundary_point(n: int, rng: random.Random) -> tuple:
    """A random boundary point: pick a facet, then uniform free coordinates."""
    i = rng.randrange(n + 1)
    side = float(rng.randrange(2))
    return tuple(side if j == i else rng.uniform(0.0, 1.0) for j in range(n + 1))


class SphereGamma:
    """Exact reachability on the boundary of the (n+1)-cube (the closed form
    on the points as given, with no quantization), plus the sampling
    protocol the certifiers use."""

    def __init__(self, n: int):
        self.n = n

    def membership(self, x, y) -> bool:
        return _reaches(check_sphere_point(x, self.n), check_sphere_point(y, self.n), 1.0)

    def sample_point(self, rng: random.Random):
        return sample_boundary_point(self.n, rng)

    def sample_pair(self, rng: random.Random) -> tuple:
        """A pair drawn from the relation with no retry, distributed as two
        ``sample_point`` draws conditioned on ``membership``.

        With d = n + 1, almost surely each drawn point lies on exactly one
        facet, and a reachable pair is one of two kinds:
        - same facet and side: 2d cases of weight 1, the other n
          coordinates drawn as sorted pairs;
        - x_i = 0 and y_j = 1 with i != j: d n cases of weight 2, since
          x_j <= 1 and 0 <= y_i always hold.  x_j and y_i are uniform, the
          other n - 1 coordinates sorted pairs.
        One ``randrange`` over the 2d + 2dn = 2d^2 weight units picks the case.
        """
        n = self.n
        d = n + 1
        k = rng.randrange(2 * d * d)
        if k < 2 * d:
            i, j = k >> 1, None
            side = float(k & 1)
        else:
            i, jj = divmod((k - 2 * d) >> 1, n)
            j = jj if jj < i else jj + 1
        xs, ys = [], []
        for m in range(d):
            if m == i and j is None:
                a = b = side
            elif m == i:
                a, b = 0.0, rng.random()
            elif m == j:
                a, b = rng.random(), 1.0
            else:
                a, b = sorted((rng.random(), rng.random()))
            xs.append(a)
            ys.append(b)
        return tuple(xs), tuple(ys)

    def distance(self, a, b) -> float:
        return sum(abs(c - d) for c, d in zip(a, b))

    def sup_fractions(self, p: SpherePath, q: SpherePath) -> list[float]:
        """Both paths' breakpoints: between two of them each coordinate
        difference is affine in s, so the L1 distance is convex."""
        return sorted(set(span_fractions(p._spans()[1])) | set(span_fractions(q._spans()[1])))

    def perturb_pair(self, pair, eps: float, rng: random.Random):
        def jitter(p):
            out = []
            for c in p:
                if c in (0.0, 1.0):
                    out.append(c)
                else:
                    c2 = c + rng.uniform(-eps, eps)
                    out.append(min(max(c2, 1e-12), 1.0 - 1e-12))
            return tuple(out)
        x, y = pair
        return jitter(x), jitter(y)


# ---------------------------------------------------------------------------
# The square boundary (n = 1): two monotone arcs and a 2-patch planner
# ---------------------------------------------------------------------------

def _on_lower_right(p: tuple) -> bool:
    return p[1] == 0.0 or p[0] == 1.0


def _on_upper_left(p: tuple) -> bool:
    return p[0] == 0.0 or p[1] == 1.0


def _arc_coord_lower(p: tuple) -> float:
    return p[0] if p[1] == 0.0 else 1.0 + p[1]


def _arc_coord_upper(p: tuple) -> float:
    return p[1] if p[0] == 0.0 else 1.0 + p[0]


def _point_on_lower(c: float) -> tuple:
    return (c, 0.0) if c <= 1.0 else (1.0, c - 1.0)


def _point_on_upper(c: float) -> tuple:
    return (0.0, c) if c <= 1.0 else (c - 1.0, 1.0)


class SpherePath:
    """A monotone polyline on the square boundary, constant speed in L1.

    The waypoints are fixed once the path is built: the segment lengths and
    their cumulative-span table are computed on the first evaluation.
    """

    def __init__(self, points: Sequence[tuple]):
        self.points = [tuple(map(float, p)) for p in points]
        self._segments = None

    def start(self):
        return self.points[0]

    def end(self):
        return self.points[-1]

    def _spans(self):
        """(segment L1 lengths, their cumulative-span table): O(points) once."""
        if self._segments is None:
            lengths = [sum(abs(c - d) for c, d in zip(p, q))
                       for p, q in zip(self.points, self.points[1:])]
            self._segments = lengths, span_table(lengths)
        return self._segments

    def evaluate(self, s: float):
        """The point at fraction s of the total length; OutOfRange unless
        s lies in [0, 1] up to PARAM_TOL.

        O(points) once for the table, then O(log points) per point.
        """
        return self.evaluate_many((s,))[0]

    def evaluate_many(self, fractions):
        """``evaluate`` at each of the ascending fractions, in one walk.

        O(points) once for the table, then O(log points) per fraction.
        """
        fractions = _path_fractions(fractions)
        lengths, table = self._spans()
        if table[-1] <= 0.0:
            return [self.points[0]] * len(fractions)
        out = []
        for i, offset in locate(table, fractions):
            p, q, seg = self.points[i], self.points[i + 1], lengths[i]
            f = 0.0 if seg <= 0.0 else min(max(offset, 0.0), seg) / seg
            out.append(tuple(c + f * (d - c) for c, d in zip(p, q)))
        return out

    def validate(self):
        for p in self.points:
            check_sphere_point(p, 1)
        for p, q in zip(self.points, self.points[1:]):
            if any(d < c - _COORD_TOL for c, d in zip(p, q)):
                raise InvalidPoint(f"polyline decreases between {p} and {q}")

    def to_json(self) -> dict:
        return {"points": [list(p) for p in self.points]}

    def __repr__(self):
        return f"SpherePath({self.points})"


def sphere_planner_1() -> Patchwork:
    """Two patches on the square boundary, one per monotone arc.

    The first patch owns every pair routed along the lower-right arc; the
    second takes the upper-left pairs minus the degenerate corner pairs the
    arcs share.
    """
    space = SphereGamma(1)

    def member_lower(x, y):
        x, y = check_sphere_point(x, 1), check_sphere_point(y, 1)
        return (_on_lower_right(x) and _on_lower_right(y)
                and _arc_coord_lower(x) <= _arc_coord_lower(y))

    def member_upper(x, y):
        x, y = check_sphere_point(x, 1), check_sphere_point(y, 1)
        corners = {(0.0, 0.0), (1.0, 1.0)}
        if x in corners and y in corners:
            return False
        return (_on_upper_left(x) and _on_upper_left(y)
                and _arc_coord_upper(x) <= _arc_coord_upper(y))

    def section_on(coord, locate):
        def section(x, y):
            x, y = check_sphere_point(x, 1), check_sphere_point(y, 1)
            a, b = coord(x), coord(y)
            waypoints = [locate(a)]
            if a < 1.0 < b:
                waypoints.append(locate(1.0))
            waypoints.append(locate(b))
            return SpherePath(waypoints)
        return section

    patches = [
        Patch("lower_right", member_lower,
              section_on(_arc_coord_lower, _point_on_lower), 2.0),
        Patch("upper_left", member_upper,
              section_on(_arc_coord_upper, _point_on_upper), 2.0),
    ]
    return Patchwork(patches, regular=True, space=space)
