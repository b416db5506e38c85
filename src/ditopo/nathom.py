"""Natural homology at H0 over finite trace diagrams of directed graphs.

Sample points of a graph induce a finite diagram: one object per trace
class between an ordered sample pair, carrying the free abelian group on
the trace classes of its endpoints (trace spaces of graphs are homotopy
discrete, so H0 is exactly that and all higher homology vanishes).
Morphisms extend a trace on both sides by sample-to-sample traces and act
on bases by concatenation.

A diagram is bisimulation-equivalent to the one-object constant-Z diagram
exactly when every group has rank one and every morphism matrix is an
isomorphism; ``check_bisimulation`` verifies an explicitly supplied
relation between two diagrams instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EdgeInterior, GraphPoint, format_point
from .errors import InfiniteTraceSpace, NotIso
from .graph import DirectedGraph, gamma, traces_between

_CLASS_CUTOFF = 4096


def _splice(left: tuple, right: tuple, junction: GraphPoint) -> tuple:
    """Concatenate edge sequences meeting at a sample point.

    At an edge-interior junction both sides name the junction edge once
    (a partial run in, a partial run out); together they form a single
    monotone run, so one copy is dropped.
    """
    if isinstance(junction, EdgeInterior) and left and right:
        if left[-1] != junction.edge or right[0] != junction.edge:
            raise RuntimeError(f"sequences do not meet at {junction!r}")
        return left[:-1] + right
    return left + right


def _class_label(trace: tuple) -> str:
    return ".".join(trace) if trace else "const"


@dataclass(frozen=True)
class NatObject:
    id: str
    source: str          # formatted sample point
    target: str
    trace: tuple         # the edge-id sequence of this object's class
    basis: tuple         # all classes between (source, target), sorted

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class NatMorphism:
    src: str
    dst: str
    alpha: tuple         # extension on the left (new source -> old source)
    beta: tuple          # extension on the right (old target -> new target)
    matrix: tuple        # rows of the integer matrix, dst-rank x src-rank

    def array(self) -> np.ndarray:
        m = np.array(self.matrix, dtype=int)
        if m.size == 0:
            rows = len(self.matrix)
            return m.reshape(rows, 0)
        return m


@dataclass
class NatDiagram:
    objects: list
    morphisms: list

    def object(self, obj_id: str) -> NatObject:
        for o in self.objects:
            if o.id == obj_id:
                return o
        raise KeyError(f"no object {obj_id!r}")

    def morphisms_from(self, obj_id: str) -> list:
        return [m for m in self.morphisms if m.src == obj_id]

    def morphisms_into(self, obj_id: str) -> list:
        return [m for m in self.morphisms if m.dst == obj_id]

    def ranks(self) -> dict:
        return {o.id: o.rank for o in self.objects}

    def to_json(self) -> dict:
        return {
            "objects": [
                {"id": o.id, "source": o.source, "target": o.target,
                 "trace": list(o.trace), "rank": o.rank,
                 "basis": [_class_label(c) for c in o.basis]}
                for o in self.objects
            ],
            "morphisms": [
                {"src": m.src, "dst": m.dst,
                 "alpha": list(m.alpha), "beta": list(m.beta),
                 "matrix": [list(row) for row in m.matrix]}
                for m in self.morphisms
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph {", '  rankdir="BT";']
        for o in self.objects:
            label = f"{_class_label(o.trace)}\\nZ^{o.rank}"
            lines.append(f'  "{o.id}" [label="{label}"];')
        seen = set()
        for m in self.morphisms:
            if m.src == m.dst or (m.src, m.dst) in seen:
                continue
            seen.add((m.src, m.dst))
            lines.append(f'  "{m.src}" -> "{m.dst}";')
        lines.append("}")
        return "\n".join(lines)


def _exact_classes(g: DirectedGraph, x: GraphPoint, y: GraphPoint) -> tuple:
    summary = traces_between(g, x, y, cutoff=_CLASS_CUTOFF)
    if summary.infinite:
        raise InfiniteTraceSpace(
            f"a directed cycle is insertable between {x!r} and {y!r}")
    if summary.count > len(summary.representatives):
        raise InfiniteTraceSpace(
            f"more than {_CLASS_CUTOFF} trace classes between {x!r} and {y!r}")
    return tuple(sorted(summary.representatives))


def factorization_diagram(g: DirectedGraph, samples: Sequence[GraphPoint]) -> NatDiagram:
    """The finite trace diagram induced by a list of sample points.

    Objects are the trace classes between reachable ordered sample pairs;
    the group at an object for a pair (x, y) is free abelian on the trace
    classes of (x, y); morphisms concatenate extension traces on both
    sides, mapping basis elements to basis elements.
    """
    oracle = gamma(g)
    samples = list(dict.fromkeys(samples))
    pairs = [(x, y) for x in samples for y in samples if oracle.membership(x, y)]
    pairs.sort(key=lambda p: (format_point(p[0]), format_point(p[1])))
    basis: dict = {(x, y): _exact_classes(g, x, y) for (x, y) in pairs}

    objects = []
    index: dict = {}
    for (x, y) in pairs:
        for trace in basis[(x, y)]:
            oid = f"{format_point(x)}>{format_point(y)}:{_class_label(trace)}"
            obj = NatObject(oid, format_point(x), format_point(y), trace, basis[(x, y)])
            objects.append(obj)
            index[(x, y, trace)] = obj

    morphisms = []
    for (x, y) in pairs:
        src_basis = basis[(x, y)]
        for (x2, y2) in pairs:
            if (x2, x) not in basis or (y, y2) not in basis:
                continue
            for alpha in basis[(x2, x)]:
                for beta in basis[(y, y2)]:
                    dst_basis = basis[(x2, y2)]
                    col_of = {}
                    for c in src_basis:
                        extended = _splice(_splice(alpha, c, x), beta, y)
                        if extended not in dst_basis:
                            raise RuntimeError(
                                f"extension {extended} missing from the basis of "
                                f"({format_point(x2)}, {format_point(y2)})")
                        col_of[c] = dst_basis.index(extended)
                    matrix = tuple(
                        tuple(1 if col_of[c] == row else 0 for c in src_basis)
                        for row in range(len(dst_basis)))
                    for trace in src_basis:
                        src_obj = index[(x, y, trace)]
                        dst_obj = index[(x2, y2, dst_basis[col_of[trace]])]
                        morphisms.append(NatMorphism(
                            src_obj.id, dst_obj.id, alpha, beta, matrix))
    return NatDiagram(objects, morphisms)


def h_n(diagram: NatDiagram, n: int) -> NatDiagram:
    """Natural homology in degree n: unchanged at n = 1, zero above.

    Trace spaces of graphs are discrete, so only H0 carries information.
    """
    if n < 1:
        raise ValueError("homology degree must be >= 1")
    if n == 1:
        return diagram
    objects = [NatObject(o.id, o.source, o.target, o.trace, ()) for o in diagram.objects]
    morphisms = [NatMorphism(m.src, m.dst, m.alpha, m.beta, ()) for m in diagram.morphisms]
    return NatDiagram(objects, morphisms)


def terminal_diagram(rank: int = 1) -> NatDiagram:
    """One object with Z^rank and its identity morphism."""
    basis = tuple(("z",) * i for i in range(rank))  # distinct placeholder labels
    obj = NatObject("pt", "*", "*", (), basis)
    identity = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    return NatDiagram([obj], [NatMorphism("pt", "pt", (), (), identity)])


def _det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss
    elimination over Python ints: every division is exact)."""
    a = [[int(v) for v in row] for row in rows]
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


def _is_unit(matrix: np.ndarray) -> bool:
    if matrix.shape[0] != matrix.shape[1]:
        return False
    if matrix.size == 0:
        return True
    return _det(matrix.tolist()) in (1, -1)


def is_bisimilar_to_point(diagram: NatDiagram) -> tuple[bool, dict]:
    """Decide bisimulation equivalence with the constant-Z one-object diagram.

    Holds exactly when every group has rank one and every morphism acts by
    an integer unit; the certificate pairs each object with the terminal
    object, or names the first offender.
    """
    if not diagram.objects:
        return False, {"reason": "no objects to relate"}
    for o in diagram.objects:
        if o.rank != 1:
            return False, {"object": o.id, "rank": o.rank}
    for m in diagram.morphisms:
        if not _is_unit(m.array()):
            return False, {"morphism": [m.src, m.dst], "matrix": [list(r) for r in m.matrix]}
    pairing = [[o.id, [[1]], "pt"] for o in diagram.objects]
    return True, {"pairing": pairing}


def check_bisimulation(d1: NatDiagram, d2: NatDiagram, relation: Sequence) -> bool:
    """Verify a supplied hereditary relation between two diagrams.

    ``relation`` lists triples (object1_id, matrix, object2_id); each matrix
    must be an integer isomorphism between the named groups.  Both heredity
    clauses are verified as strict commutation of matrices: every morphism
    out of one side must close a commuting square through some related
    morphism out of the other.
    """
    triples = []
    for (a, eta, b) in relation:
        o1, o2 = d1.object(a), d2.object(b)
        m = np.array(eta, dtype=int).reshape(o2.rank, o1.rank)
        if not _is_unit(m):
            raise NotIso(f"relation matrix between {a!r} and {b!r} is not a Z-isomorphism")
        triples.append((a, m, b))

    def closes(src_diag, dst_diag, src_id, eta, dst_id, forward: bool) -> bool:
        for f in src_diag.morphisms_from(src_id):
            matched = False
            for g in dst_diag.morphisms_from(dst_id):
                for (a2, eta2, b2) in triples:
                    x2, y2 = (a2, b2) if forward else (b2, a2)
                    if x2 != f.dst or y2 != g.dst:
                        continue
                    lhs = eta2 @ f.array() if forward else eta2 @ g.array()
                    rhs = g.array() @ eta if forward else f.array() @ eta
                    if lhs.shape == rhs.shape and np.array_equal(lhs, rhs):
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
