"""The walk along a path's cumulative spans, shared by every path type.

``span_table`` and ``locate`` evaluate a graph path, a square-boundary
polyline or a product at ascending fractions in one walk; ``select_bit``
picks the k-th reachable cell of a bitset when a pair is sampled.  The
module imports nothing from ditopo but ``errors``, so the sphere layer can
use it without loading ``core``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

from .errors import OutOfRange

# Tolerance on edge parameters; vertex identity is exact.
PARAM_TOL = 1e-9


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
