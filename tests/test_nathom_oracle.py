"""The index-map natural-homology checks against the dense-matrix oracle.

``conftest.dense_check_bisimulation`` and ``dense_is_bisimilar_to_point``
run the full-matrix algorithm the library used before its morphisms became
basis index maps.  On seeded diagrams (ladders, DAGs, the circle and their
degree-2 homology) and seeded relations, both must give the same answer,
the same certificate, or raise the same error.
"""

import random

import pytest
from conftest import dense_check_bisimulation, dense_is_bisimilar_to_point

from ditopo import nathom
from ditopo.core import EdgeInterior, Vertex
from ditopo.graph import DirectedGraph, directed_circle, directed_interval
from ditopo.nathom import (
    NatDiagram,
    NatMorphism,
    NatObject,
    check_bisimulation,
    factorization_diagram,
    h_n,
    is_bisimilar_to_point,
    terminal_diagram,
)

SEED = 20261018


def ladder(rng: random.Random, k: int) -> DirectedGraph:
    """k rungs j0 -> j1 -> ... -> jk, each two parallel edges or a diamond."""
    vertices, edges = [f"j{i}" for i in range(k + 1)], []
    for i in range(k):
        if rng.random() < 0.5:
            edges += [(f"p{i}", f"j{i}", f"j{i + 1}"), (f"q{i}", f"j{i}", f"j{i + 1}")]
        else:
            vertices.append(f"m{i}")
            edges += [(f"u{i}", f"j{i}", f"m{i}"), (f"d{i}", f"m{i}", f"j{i + 1}"),
                      (f"s{i}", f"j{i}", f"j{i + 1}")]
    return DirectedGraph(vertices, edges)


def dag(rng: random.Random, nv: int) -> DirectedGraph:
    edges = [(f"e{n}", f"v{i}", f"v{j}")
             for n, (i, j) in enumerate(sorted(
                 (i, j) for i in range(nv) for j in range(i + 1, nv)
                 for _ in range(rng.choice((0, 0, 1, 2)))))]
    return DirectedGraph([f"v{i}" for i in range(nv)], edges)


def diagrams() -> list:
    rng = random.Random(SEED)
    out = []
    for k in (1, 2, 3):
        g = ladder(rng, k)
        junctions = [Vertex(f"j{i}") for i in range(k + 1)]
        out.append((f"ladder{k}", factorization_diagram(g, junctions)))
    for n in range(4):
        g = dag(rng, 3 + n % 2)
        out.append((f"dag{n}", factorization_diagram(g, [Vertex(v) for v in g.vertices])))
    circle = directed_circle()
    out.append(("circle", factorization_diagram(circle, [Vertex("b"), Vertex("e")])))
    out.append(("circle-top", factorization_diagram(
        circle, [Vertex("b"), EdgeInterior("top", 0.5), Vertex("e")])))
    out.append(("interval", factorization_diagram(directed_interval(),
                                                  [Vertex("0"), Vertex("1")])))
    out += [(name + "-h2", h_n(d, 2)) for name, d in out[:2] + out[-3:-1]]
    out.append(("fold", folding_diagram()))
    return out


def folding_diagram() -> NatDiagram:
    """A morphism that sends both basis elements of Z^2 to the one of Z, which
    factorization_diagram never builds: its extensions are injective."""
    a = NatObject("A", "*", "*", (), (("a",), ("b",)))
    b = NatObject("B", "*", "*", (), (("c",),))
    return NatDiagram([a, b], [NatMorphism("A", "A", (), (), (0, 1), 2),
                               NatMorphism("B", "B", (), (), (0,), 1),
                               NatMorphism("A", "B", (), (), (0, 0), 1)])


DIAGRAMS = diagrams()


def permuted_copy(d: NatDiagram, rng: random.Random) -> tuple:
    """d with each object's basis permuted, and the relation (o, P_o, o)
    between d and the copy, where P_o sends basis j to its new place."""
    perm = {o.id: rng.sample(range(o.rank), o.rank) for o in d.objects}
    objects = []
    for o in d.objects:
        basis = [None] * o.rank
        for j, p in enumerate(perm[o.id]):
            basis[p] = o.basis[j]
        objects.append(NatObject(o.id, o.source, o.target, o.trace, tuple(basis)))
    morphisms = []
    for m in d.morphisms:
        inverse = sorted(range(len(m.image)), key=perm[m.src].__getitem__)
        image = tuple(perm[m.dst][m.image[j]] for j in inverse)
        morphisms.append(NatMorphism(m.src, m.dst, m.alpha, m.beta, image, m.dst_rank))
    relation = [(o.id, [[int(perm[o.id][j] == i) for j in range(o.rank)]
                        for i in range(o.rank)], o.id) for o in d.objects]
    return NatDiagram(objects, morphisms), relation


def identity(o) -> list:
    return [[int(i == j) for j in range(o.rank)] for i in range(o.rank)]


def unimodular(rng: random.Random, n: int) -> list:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def relations(d: NatDiagram, rng: random.Random) -> list:
    """(label, d1, d2, relation) cases for the checker, d1 or d2 being d."""
    full = [(o.id, identity(o), o.id) for o in d.objects]
    copy, to_copy = permuted_copy(d, rng)
    cases = [("identity", d, full), ("permuted copy", copy, to_copy),
             ("permutations on itself", d, to_copy)]
    high = [o for o in d.objects if o.rank >= 2]
    for o in high[:3]:
        u = unimodular(rng, o.rank)
        cases.append((f"unimodular at {o.id}", d,
                      [(p.id, u if p is o else identity(p), p.id) for p in d.objects]))
        cases.append((f"unimodular alone at {o.id}", d, [(o.id, u, o.id)]))
    nonzero = [i for i, o in enumerate(d.objects) if o.rank]
    if nonzero:
        perturbed = [list(map(list, eta)) for (_, eta, _) in full]
        i = rng.choice(nonzero)
        r = rng.randrange(len(perturbed[i]))
        perturbed[i][r][rng.randrange(len(perturbed[i][r]))] += rng.choice((-1, 1))
        cases.append(("perturbed", d, [(a, eta, b) for (a, _, b), eta
                                       in zip(full, perturbed)]))
    for _ in range(3):
        cases.append(("partial", d, [t for t in full if rng.random() < 0.6]))
    ones = [o for o in d.objects if o.rank == 1]
    if ones:
        cases.append(("rank-one part to the point", terminal_diagram(),
                      [(o.id, [[1]], "pt") for o in ones]))
    for o in high[:1]:
        cases.append(("rank mismatch", terminal_diagram(), [(o.id, [[1]] * o.rank, "pt")]))
        cases.append(("entry count", d, [(o.id, [1] * (o.rank + 1), o.id)]))
        cases.append(("non-integer", d, [(o.id, [[0.5] * o.rank] * o.rank, o.id)]))
    cases = [(label, d, d2, relation) for label, d2, relation in cases]
    if ones:
        cases.append(("point to the rank-one part", terminal_diagram(), d,
                      [("pt", [[1]], o.id) for o in ones]))
        cases.append(("point to some rank-one objects", terminal_diagram(), d,
                      [("pt", [[1]], o.id) for o in ones if rng.random() < 0.5]))
    return cases


def outcome(check, *args):
    try:
        return ("returns", check(*args))
    except Exception as exc:  # noqa: BLE001 - both sides must raise the same type
        return ("raises", type(exc).__name__)


@pytest.mark.parametrize("name, d", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_checks_equal_the_dense_oracle(name, d):
    rng = random.Random(f"{SEED}/{name}")
    assert is_bisimilar_to_point(d) == dense_is_bisimilar_to_point(d)
    seen = set()
    for label, d1, d2, relation in relations(d, rng):
        if d2 is not d:
            assert is_bisimilar_to_point(d2) == dense_is_bisimilar_to_point(d2)
        got = outcome(check_bisimulation, d1, d2, relation)
        assert got == outcome(dense_check_bisimulation, d1, d2, relation), label
        seen.add((label.split(" at ")[0], got))
    assert ("identity", ("returns", True)) in seen
    assert ("permuted copy", ("returns", True)) in seen


def test_the_cases_reach_every_answer():
    answers = set()
    for name, d in DIAGRAMS:
        for label, d1, d2, relation in relations(d, random.Random(f"{SEED}/{name}")):
            answers.add(outcome(check_bisimulation, d1, d2, relation))
    assert answers == {("returns", True), ("returns", False),
                       ("raises", "NotIso"), ("raises", "ValueError")}


def test_point_check_on_morphisms_that_disagree_with_their_objects():
    # all ranks are one, so only the morphisms can refute point-likeness
    p, q = (NatObject(x, "*", "*", (), ((x.lower(),),)) for x in "PQ")
    for image, dst_rank in (((0,), 1), ((0, 0), 2), ((1, 0), 2), ((0,), 2), ((), 0)):
        d = NatDiagram([p, q], [NatMorphism("P", "Q", (), (), image, dst_rank)])
        assert is_bisimilar_to_point(d) == dense_is_bisimilar_to_point(d), image


# The checker interns equal relation matrices and memoises each product per
# (image, matrix); these cases would go wrong if it conflated two of them.

def hand_diagram(ranks: dict, arrows: list) -> NatDiagram:
    """Objects named by ``ranks``, each of its rank; arrows (src, dst, image)."""
    objects = [NatObject(o, "*", "*", (), tuple((o, k) for k in range(r)))
               for o, r in ranks.items()]
    return NatDiagram(objects, [NatMorphism(s, t, (), (), image, ranks[t])
                                for s, t, image in arrows])


def agrees(d1, d2, relation):
    got = outcome(check_bisimulation, d1, d2, relation)
    assert got == outcome(dense_check_bisimulation, d1, d2, relation), relation
    return got


def test_one_list_object_as_many_matrices():
    for name, d in DIAGRAMS:
        shared = {o.rank: identity(o) for o in d.objects}
        relation = [(o.id, shared[o.rank], o.id) for o in d.objects]
        assert agrees(d, d, relation) == ("returns", True), name
        ones = [o for o in d.objects if o.rank == 1]
        one = [[1]]
        if ones:
            agrees(d, terminal_diagram(), [(o.id, one, "pt") for o in ones])


def test_equal_matrices_as_distinct_objects():
    rng = random.Random(SEED)
    forms = (identity,
             lambda o: tuple(map(tuple, identity(o))),
             lambda o: [v for row in identity(o) for v in row],
             lambda o: [[float(v) for v in row] for row in identity(o)],
             lambda o: [tuple(row) if k % 2 else row for k, row in enumerate(identity(o))])
    for name, d in DIAGRAMS:
        relation = [(o.id, rng.choice(forms)(o), o.id) for o in d.objects]
        assert agrees(d, d, relation) == ("returns", True), name


def test_shared_unimodular_matrix_with_one_copy_perturbed():
    shear = [[1, 1], [0, 1]]
    # three rank-2 objects with their identities, an identity map A -> B and
    # a swap B -> C
    d = hand_diagram({"A": 2, "B": 2, "C": 2},
                     [("A", "A", (0, 1)), ("B", "B", (0, 1)), ("C", "C", (0, 1)),
                      ("A", "B", (0, 1)), ("B", "C", (1, 0))])
    answers = set()
    for perturbed in "ABC":
        for other in ([[1, 2], [0, 1]], [[1, 0], [1, 1]], [[-1, 1], [0, 1]]):
            relation = [(o, other if o == perturbed else shear, o) for o in "ABC"]
            answers.add(agrees(d, d, relation))
            answers.add(agrees(d, d, [t for t in relation if t[0] != "A"]))
    assert answers == {("returns", True), ("returns", False)}
    for name, d in DIAGRAMS:
        high = [o for o in d.objects if o.rank == 2]
        for o in high[:2]:
            agrees(d, d, [(p.id, [[1, 2], [0, 1]] if p is o
                           else shear if p.rank == 2 else identity(p), p.id)
                          for p in d.objects])


def test_equal_products_into_different_objects():
    one = hand_diagram({"A": 1, "A1": 1}, [("A", "A1", (0,))])
    two = hand_diagram({"B": 1, "B1": 1, "B2": 1}, [("B", "B1", (0,)), ("B", "B2", (0,))])
    for d1, d2, (x, y) in ((one, two, ("A", "B")), (two, one, ("B", "A"))):
        relation = [(x, [[1]], y), (x + "1", [[1]], y + "1")]
        assert agrees(d1, d2, relation) == ("returns", False)
        relation.append(("A1", [[1]], "B2") if d1 is one else ("B2", [[1]], "A1"))
        assert agrees(d1, d2, relation) == ("returns", True)


def test_no_cache_outlives_a_call():
    def state():
        return {k: len(v) for k, v in vars(nathom).items()
                if not k.startswith("__") and isinstance(v, (dict, list, set))}

    before, checked = state(), 0
    for _, d in DIAGRAMS:
        ones = [o for o in d.objects if o.rank == 1 and d.morphisms_from(o.id)]
        if not ones:
            continue
        accept = [(o.id, identity(o), o.id) for o in d.objects]
        reject = [(o.id, [[-1]] if o is ones[0] else identity(o), o.id) for o in d.objects]
        if dense_check_bisimulation(d, d, reject):
            continue
        for relation in (accept, reject, accept, reject, reject, accept):
            agrees(d, d, relation)
        checked += 1
    assert checked >= 5
    assert state() == before
