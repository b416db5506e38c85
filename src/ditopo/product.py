"""Cartesian products of directed spaces and directed tori.

The reachability relation of a product is the product of the factor
relations, so membership is componentwise.  Patchworks combine by grading:
with factor patches indexed 0..n_i in their closed-prefix order, the
product patch G_j collects all index tuples summing to j, which stays a
partition with one continuous section per piece.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import DiTCReport, EdgeInterior, Reason, Vertex
from .errors import InvalidPoint, NotRegular
from .graph import CellPlanner, loop_planner


class ProductPath:
    """A tuple of factor paths evaluated at a common fraction."""

    def __init__(self, components: Sequence):
        self.components = tuple(components)

    def start(self):
        return tuple(p.start() for p in self.components)

    def end(self):
        return tuple(p.end() for p in self.components)

    def evaluate(self, s: float):
        return tuple(p.evaluate(s) for p in self.components)

    def evaluate_many(self, fractions):
        """``evaluate`` at each ascending fraction: one walk per component."""
        fractions = list(fractions)
        return list(zip(*(p.evaluate_many(fractions) for p in self.components)))

    def validate(self):
        for p in self.components:
            p.validate()

    def to_json(self) -> dict:
        return {"components": [p.to_json() for p in self.components]}

    def __repr__(self):
        return f"ProductPath({', '.join(repr(p) for p in self.components)})"


class ProductGamma:
    """Componentwise reachability oracle over tuples of factor points."""

    def __init__(self, factors: Sequence):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)

    def _check(self, p):
        if len(p) != len(self.factors):
            raise InvalidPoint(f"point {p!r} has {len(p)} coordinates, "
                               f"expected {len(self.factors)}")

    def membership(self, x, y) -> bool:
        self._check(x)
        self._check(y)
        return all(f.membership(a, b) for f, a, b in zip(self.factors, x, y))

    def sample_point(self, rng: random.Random):
        return tuple(f.sample_point(rng) for f in self.factors)

    def sample_pair(self, rng: random.Random) -> tuple:
        """A pair drawn factor by factor: the relation and the measure are
        both products, so this is ``sample_point`` pairs conditioned on
        ``membership``, exactly."""
        xs, ys = zip(*(f.sample_pair(rng) for f in self.factors))
        return xs, ys

    def distance(self, a, b) -> float:
        return sum(f.distance(p, q) for f, p, q in zip(self.factors, a, b))

    def sup_fractions(self, p: ProductPath, q: ProductPath) -> list[float]:
        """The union of the factors' fractions: between two of them every
        factor distance is convex in s, and so is their sum."""
        fractions = set()
        for f, a, b in zip(self.factors, p.components, q.components):
            fractions.update(f.sup_fractions(a, b))
        return sorted(fractions)

    def perturb_pair(self, pair, eps: float, rng: random.Random):
        xs, ys = [], []
        for f, a, b in zip(self.factors, *pair):
            scaled = min(eps, f.distance(a, b) / 8.0)
            if scaled <= 0.0:
                xs.append(a)
                ys.append(b)
                continue
            a2, b2 = f.perturb_pair((a, b), scaled, rng)
            xs.append(a2)
            ys.append(b2)
        return tuple(xs), tuple(ys)


def product_gamma(factors: Sequence) -> ProductGamma:
    """Membership in the product relation, tested componentwise."""
    return ProductGamma(factors)


def product_planner(factors: Sequence) -> CellPlanner:
    """Combine one regular graph planner per factor into the graded patchwork.

    Patch G_j holds the pairs whose per-factor patch indices sum to j; its
    section applies the factor sections componentwise.  The regime of a
    pair is the tuple of its factors' regimes, so the grade and the factor
    entries are looked up once per regime: one claim is one lookup.
    """
    oracles = [f[0] for f in factors]
    planners = [f[1] for f in factors]
    for p in planners:
        if not p.regular:
            raise NotRegular("every factor patchwork must carry the ordered-regular flag")
        if not isinstance(p, CellPlanner):
            raise TypeError("every factor must be a graph planner (a CellPlanner)")
    top = sum(len(p.patches) - 1 for p in planners)
    space = ProductGamma(oracles)

    def regime(x, y) -> tuple:
        if len(x) != len(planners) or len(y) != len(planners):
            space.membership(x, y)  # raises InvalidPoint
        return tuple([p.regime(a, b) for p, a, b in zip(planners, x, y)])

    def rule(x, y):
        entries = [p.entry(a, b) for p, a, b in zip(planners, x, y)]
        return sum(k for k, _ in entries), entries

    def build(j, entries, x, y):
        return ProductPath([p.build(k, data, a, b)
                            for p, (k, data), a, b in zip(planners, entries, x, y)])

    bound = max(p.lipschitz_bound for planner in planners for p in planner.patches)
    return CellPlanner(space, [(f"G{j}", bound) for j in range(top + 1)], regime, rule, build)


# ---------------------------------------------------------------------------
# Directed tori
# ---------------------------------------------------------------------------

def torus_factors(n: int) -> list:
    if n < 1:
        raise ValueError("torus dimension must be >= 1")
    factors = []
    for _ in range(n):
        planner = loop_planner()
        factors.append((planner.space, planner))
    return factors


def torus_planner(n: int) -> tuple[CellPlanner, DiTCReport]:
    """The graded planner on the n-torus of directed loops; complexity n + 1.

    The upper bound is the graded patch count; the matching lower bound is
    the classical complexity of the n-torus, which applies because the
    space is strongly connected.
    """
    planner = product_planner(torus_factors(n))
    report = DiTCReport(n + 1, n + 1, True, Reason.KNOWN_BUILTIN, planner)
    return planner, report


def turns_to_point(t: float):
    """Angle in turns [0,1) to a point of the directed loop graph."""
    t = t % 1.0
    if t == 0.0:
        return Vertex("v")
    return EdgeInterior("l", t)


def parse_torus_point(text: str, n: int):
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError:
        raise InvalidPoint(f"expected {n} comma-separated turns, got {text!r}") from None
    if len(coords) != n:
        raise InvalidPoint(f"expected {n} comma-separated turns, got {text!r}")
    return tuple(turns_to_point(c) for c in coords)
