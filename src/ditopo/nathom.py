"""Natural homology at H0 over finite trace diagrams of directed graphs.

Sample points of a graph induce a finite diagram: one object per trace
class between an ordered sample pair, carrying the free abelian group on
the trace classes of its endpoints (trace spaces of graphs are homotopy
discrete, so H0 is exactly that and all higher homology vanishes).
Morphisms extend a trace on both sides by sample-to-sample traces and act
on bases by concatenation, so each one sends basis elements to basis
elements: it is stored as a basis index map (``image``: for each source
basis element, the position of its image), and its 0/1 ``matrix`` is
derived from that map only for output.

A diagram is bisimulation-equivalent to the one-object constant-Z diagram
exactly when every group has rank one and every morphism is an
isomorphism; ``check_bisimulation`` verifies an explicitly supplied
relation between two diagrams instead.  Costs, for a diagram with M
morphisms and groups of rank at most r:

- ``is_bisimilar_to_point``: O(objects + M), one bijection test per
  morphism once every rank is known to be one.
- ``check_bisimulation``: each relation matrix is read in one O(r^2)
  pass and interned, so equal matrices become one tuple and the exact
  Bareiss determinant, O(r^3), runs once per distinct matrix.  Then, for
  each relation triple (a, eta, b), one lookup per morphism F out of a and
  matrix eta' relating F.dst, and one per morphism G out of b.  The
  products behind them cost O(r^2) once per distinct (image, matrix):
  eta' . F selects columns of eta' by F's image, and G . eta adds rows of
  eta into G's image rows.  Products are interned as well, so the two
  sets of squares match by hashing (target object, product identity)
  pairs: no pair (F, G) is compared directly, and no product is hashed
  per square.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Sequence

from .core import EdgeInterior, GraphPoint, format_point
from .errors import InfiniteTraceSpace, NotIso
from .graph import DirectedGraph, gamma, traces_between
from .record import FrozenRecord, Record

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


class NatObject(FrozenRecord):
    __slots__ = _fields = ("id", "source", "target", "trace", "basis")

    def __init__(self, id: str,
                 source: str,    # formatted sample point
                 target: str,
                 trace: tuple,   # the edge-id sequence of this object's class
                 basis: tuple):  # all classes between (source, target), sorted
        self.id = id
        self.source = source
        self.target = target
        self.trace = trace
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)


class NatMorphism(FrozenRecord):
    __slots__ = _fields = ("src", "dst", "alpha", "beta", "image", "dst_rank")

    def __init__(self, src: str, dst: str,
                 alpha: tuple,   # extension on the left (new source -> old source)
                 beta: tuple,    # extension on the right (old target -> new target)
                 image: tuple,   # for each source basis element, its row in the target basis
                 dst_rank: int):
        self.src = src
        self.dst = dst
        self.alpha = alpha
        self.beta = beta
        self.image = image
        self.dst_rank = dst_rank

    @property
    def matrix(self) -> tuple:
        """Rows of the 0/1 integer matrix, dst-rank x src-rank: one zero row
        per target basis element, then one entry set per source element."""
        rows = [[0] * len(self.image) for _ in range(self.dst_rank)]
        for col, row in enumerate(self.image):
            rows[row][col] = 1
        return tuple(map(tuple, rows))

    def is_bijection(self) -> bool:
        return sorted(self.image) == list(range(self.dst_rank))


def _find(by_id: dict, obj_id: str) -> NatObject:
    try:
        return by_id[obj_id]
    except KeyError:
        raise KeyError(f"no object {obj_id!r}") from None


class NatDiagram(Record):
    """Objects and morphisms, looked up through dict indexes that are built
    on the first lookup: the two lists must not change after that."""

    __slots__ = ("objects", "morphisms", "_index")
    _fields = ("objects", "morphisms")

    def __init__(self, objects: list, morphisms: list):
        self.objects = objects
        self.morphisms = morphisms
        self._index = None

    def _indexes(self) -> tuple:
        if self._index is None:
            by_id, out, into = {}, {}, {}
            for o in self.objects:
                by_id.setdefault(o.id, o)
            for m in self.morphisms:
                out.setdefault(m.src, []).append(m)
                into.setdefault(m.dst, []).append(m)
            self._index = (by_id, out, into)
        return self._index

    def object(self, obj_id: str) -> NatObject:
        return _find(self._indexes()[0], obj_id)

    def morphisms_from(self, obj_id: str) -> list:
        return list(self._indexes()[1].get(obj_id, ()))

    def morphisms_into(self, obj_id: str) -> list:
        return list(self._indexes()[2].get(obj_id, ()))

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
    names = [format_point(p) for p in samples]
    # pairs, bases and objects are keyed by sample indices, so the loops
    # below hash small int tuples rather than points
    pairs = [(i, j) for i, x in enumerate(samples) for j, y in enumerate(samples)
             if oracle.membership(x, y)]
    pairs.sort(key=lambda p: (names[p[0]], names[p[1]]))
    basis: dict = {(i, j): _exact_classes(g, samples[i], samples[j]) for (i, j) in pairs}

    objects = []
    pair_objects: dict = {}
    for (i, j) in pairs:
        pair_objects[(i, j)] = objs = [
            NatObject(f"{names[i]}>{names[j]}:{_class_label(trace)}", names[i], names[j],
                      trace, basis[(i, j)])
            for trace in basis[(i, j)]]
        objects.extend(objs)

    position = {pair: {c: k for k, c in enumerate(b)} for pair, b in basis.items()}
    morphisms = []
    for (i, j) in pairs:
        x, y = samples[i], samples[j]
        src_basis, src_objects = basis[(i, j)], pair_objects[(i, j)]
        for (i2, j2) in pairs:
            if (i2, i) not in basis or (j, j2) not in basis:
                continue
            dst_position, dst_objects = position[(i2, j2)], pair_objects[(i2, j2)]
            for alpha in basis[(i2, i)]:
                for beta in basis[(j, j2)]:
                    image = []
                    for c in src_basis:
                        extended = _splice(_splice(alpha, c, x), beta, y)
                        row = dst_position.get(extended)
                        if row is None:
                            raise RuntimeError(
                                f"extension {extended} missing from the basis of "
                                f"({names[i2]}, {names[j2]})")
                        image.append(row)
                    image = tuple(image)
                    for src_obj, row in zip(src_objects, image):
                        morphisms.append(NatMorphism(
                            src_obj.id, dst_objects[row].id, alpha, beta, image,
                            len(dst_objects)))
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
    morphisms = [NatMorphism(m.src, m.dst, m.alpha, m.beta, (), 0) for m in diagram.morphisms]
    return NatDiagram(objects, morphisms)


def terminal_diagram(rank: int = 1) -> NatDiagram:
    """One object with Z^rank and its identity morphism."""
    basis = tuple(("z",) * i for i in range(rank))  # distinct placeholder labels
    obj = NatObject("pt", "*", "*", (), basis)
    return NatDiagram([obj], [NatMorphism("pt", "pt", (), (), tuple(range(rank)), rank)])


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


def _is_unit(rows) -> bool:
    """Whether a square integer matrix, given by its rows, is invertible over Z."""
    return not rows or _det(rows) in (1, -1)


def is_bisimilar_to_point(diagram: NatDiagram) -> tuple[bool, dict]:
    """Decide bisimulation equivalence with the constant-Z one-object diagram.

    Holds exactly when every group has rank one and every morphism is a
    bijection of bases; the certificate pairs each object with the terminal
    object, or names the first offender.
    """
    if not diagram.objects:
        return False, {"reason": "no objects to relate"}
    for o in diagram.objects:
        if o.rank != 1:
            return False, {"object": o.id, "rank": o.rank}
    for m in diagram.morphisms:
        if not m.is_bijection():
            return False, {"morphism": [m.src, m.dst], "matrix": [list(r) for r in m.matrix]}
    pairing = [[o.id, [[1]], "pt"] for o in diagram.objects]
    return True, {"pairing": pairing}


def _entries(eta) -> list:
    """The entries of nested lists and tuples in row-major order, read in
    one pass without recursion; anything else (a set, a dict, a generator,
    a string) is a single entry."""
    entries, stack = [], [iter((eta,))]
    while stack:
        for item in stack[-1]:
            if isinstance(item, (list, tuple)):
                stack.append(iter(item))
                break
            entries.append(item)
        else:
            stack.pop()
    return entries


def _relation_matrix(eta, o1: NatObject, o2: NatObject, matrices: dict) -> tuple:
    """The rank2 x rank1 integer rows of a relation matrix, from its entries
    in row-major order, interned in ``matrices`` (which holds only units);
    raises ``ValueError`` on a wrong entry count and ``NotIso`` unless it
    is an integer isomorphism."""
    rows, cols = o2.rank, o1.rank
    matrix = None
    if (type(eta) in (list, tuple) and len(eta) == rows
            and {list, tuple}.issuperset(map(type, eta)) and {cols}.issuperset(map(len, eta))):
        matrix = tuple(map(tuple, eta))          # the usual shape: rows of ints
        if not {int}.issuperset(map(type, chain.from_iterable(matrix))):
            matrix = None
    if matrix is None:
        values = _entries(eta)
        if len(values) != rows * cols:
            raise ValueError(f"relation matrix between {o1.id!r} and {o2.id!r} has "
                             f"{len(values)} entries, not {rows}x{cols}")
        for k, v in enumerate(values):
            try:
                number = int(v)
            except (TypeError, ValueError, OverflowError):
                number = None
            if number is None or number != v:
                raise NotIso(f"relation matrix between {o1.id!r} and {o2.id!r} "
                             f"has the non-integer entry {v!r}")
            values[k] = number
        matrix = tuple(zip(*[iter(values)] * cols))
    interned = matrices.get(matrix) if rows == cols else None
    if interned is None:
        if rows != cols or not _is_unit(matrix):
            raise NotIso(f"relation matrix between {o1.id!r} and {o2.id!r} "
                         "is not a Z-isomorphism")
        matrices[matrix] = interned = matrix
    return interned


def _push(g: NatMorphism, eta: tuple, width: int) -> tuple:
    """G . eta: row k of eta added into row ``g.image[k]``."""
    zero = (0,) * width
    rows = [zero] * g.dst_rank
    for k, i in enumerate(g.image):
        rows[i] = eta[k] if rows[i] is zero else tuple(map(add, rows[i], eta[k]))
    return tuple(rows)


def check_bisimulation(d1: NatDiagram, d2: NatDiagram, relation: Sequence) -> bool:
    """Verify a supplied hereditary relation between two diagrams.

    ``relation`` lists triples (object1_id, matrix, object2_id); each matrix
    must be an integer isomorphism between the named groups, given as its
    entries in row-major order, flat or in nested lists and tuples.  Both
    heredity clauses are verified as strict commutation of matrices: every
    morphism out of one side must close a commuting square through some
    related morphism out of the other.

    Equal matrices are interned to one tuple, so each distinct matrix is
    tested for unimodularity once, and each product eta' . F or G . eta is
    computed once per distinct (image, matrix) and interned too; squares
    then match by target object and product identity.  No cache outlives
    the call.
    """
    by_id1, out1 = d1._indexes()[:2]
    by_id2, out2 = d2._indexes()[:2]
    matrices: dict = {}
    triples = []
    related: dict = {}           # object1 id -> [(object2 id, matrix, its id)]
    for (a, eta, b) in relation:
        o1 = _find(by_id1, a)
        m = _relation_matrix(eta, o1, _find(by_id2, b), matrices)
        triples.append((a, m, b, o1.rank))
        related.setdefault(a, []).append((b, m, id(m)))

    products: dict = {}          # each distinct product, interned
    selected: dict = {}          # (F.image, id(eta')) -> id(eta' . F)
    pushed: dict = {}            # (G.image, G.dst_rank, id(eta)) -> id(G . eta)
    for (a, eta, b, width) in triples:
        # per F out of a: (b', id(eta' . F)) for each eta' relating F.dst to b'
        rows, offered = [], []
        for f in out1.get(a, ()):
            row = []
            for b2, eta2, eta2_id in related.get(f.dst, ()):
                key = (f.image, eta2_id)
                p = selected.get(key)
                if p is None:
                    p = tuple([tuple(map(r.__getitem__, f.image)) for r in eta2])
                    selected[key] = p = id(products.setdefault(p, p))
                row.append((b2, p))
            rows.append(row)
            offered += row
        # per G out of b: (G.dst, id(G . eta))
        squares, eta_id = set(), id(eta)
        for g in out2.get(b, ()):
            key = (g.image, g.dst_rank, eta_id)
            p = pushed.get(key)
            if p is None:
                p = _push(g, eta, width)
                pushed[key] = p = id(products.setdefault(p, p))
            squares.add((g.dst, p))
        if any(map(squares.isdisjoint, rows)) or not squares.issubset(offered):
            return False
    return True
