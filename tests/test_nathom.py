"""Trace diagrams, functoriality, and bisimulation checks."""

import itertools
import random

import pytest
from conftest import Dense, dense_is_unit

from ditopo.core import EdgeInterior, Vertex
from ditopo.errors import InfiniteTraceSpace, NotIso
from ditopo.graph import (
    DirectedGraph,
    directed_circle,
    directed_interval,
    directed_loop,
    ditc,
)
from ditopo.nathom import (
    _det,
    _is_unit,
    check_bisimulation,
    factorization_diagram,
    h_n,
    is_bisimilar_to_point,
    terminal_diagram,
)


def circle_diagram():
    return factorization_diagram(directed_circle(), [Vertex("b"), Vertex("e")])


def interval_diagram():
    return factorization_diagram(directed_interval(), [Vertex("0"), Vertex("1")])


class TestCircleDiagram:
    def test_ranks(self):
        d = circle_diagram()
        ranks = d.ranks()
        maximal = {oid for oid, r in ranks.items() if r == 2}
        assert maximal == {"v:b>v:e:top", "v:b>v:e:bot"}
        assert all(r == 1 for oid, r in ranks.items() if oid not in maximal)
        assert len(ranks) == 4

    def test_generator_lands_on_its_continuation(self):
        d = circle_diagram()
        # extending the constant at b by the top run sends the generator to
        # the top basis element of the rank-2 group
        ext = [m for m in d.morphisms
               if m.src == "v:b>v:b:const" and m.dst == "v:b>v:e:top"]
        assert len(ext) == 1
        top_index = d.object("v:b>v:e:top").basis.index(("top",))
        column = [row[0] for row in ext[0].matrix]
        assert column[top_index] == 1 and sum(column) == 1

    def test_not_bisimilar_to_point(self):
        ok, certificate = is_bisimilar_to_point(circle_diagram())
        assert not ok
        assert certificate["rank"] == 2


class TestIntervalDiagram:
    def test_all_ranks_one_and_identity_like(self):
        d = interval_diagram()
        assert set(d.ranks().values()) == {1}
        for m in d.morphisms:
            assert m.matrix == ((1,),)

    def test_bisimilar_to_point(self):
        ok, certificate = is_bisimilar_to_point(interval_diagram())
        assert ok
        assert len(certificate["pairing"]) == len(interval_diagram().objects)


class TestDiagramMechanics:
    def test_loop_raises_infinite(self):
        with pytest.raises(InfiniteTraceSpace):
            factorization_diagram(directed_loop(), [Vertex("v")])

    def test_empty_samples_give_empty_diagram(self):
        d = factorization_diagram(directed_circle(), [])
        assert d.objects == [] and d.morphisms == []
        assert h_n(d, 2).objects == []
        ok, certificate = is_bisimilar_to_point(d)
        assert not ok and "no objects" in certificate["reason"]

    def test_higher_degrees_vanish(self):
        z = h_n(circle_diagram(), 2)
        assert all(r == 0 for r in z.ranks().values())
        assert h_n(circle_diagram(), 1) is not z

    def test_functoriality_on_composable_extensions(self):
        d = factorization_diagram(
            DirectedGraph(["a", "b", "c"],
                          [("p", "a", "b"), ("q", "a", "b"), ("r", "b", "c")]),
            [Vertex("a"), Vertex("b"), Vertex("c")])
        by_src: dict = {}
        for m in d.morphisms:
            by_src.setdefault(m.src, []).append(m)
        checked = 0
        for f in d.morphisms:
            for g in by_src.get(f.dst, []):
                alpha = g.alpha + f.alpha
                beta = f.beta + g.beta
                composites = [m for m in by_src.get(f.src, [])
                              if m.dst == g.dst and m.alpha == alpha and m.beta == beta]
                assert composites, (f, g)
                assert Dense.of(composites[0].matrix) == Dense.of(g.matrix) @ Dense.of(f.matrix)
                checked += 1
        assert checked > 10

    def test_basis_permanence(self):
        for d in (circle_diagram(), interval_diagram()):
            for m in d.morphisms:
                rows = m.matrix
                assert {v for row in rows for v in row} <= {0, 1}
                assert all(sum(row[j] for row in rows) == 1 for j in range(len(m.image)))
                assert all(rows[i][j] == 1 for j, i in enumerate(m.image))

    def test_interior_samples_splice_partial_edges(self):
        d = factorization_diagram(
            directed_circle(),
            [Vertex("b"), EdgeInterior("top", 0.5), Vertex("e")])
        assert sorted(d.ranks().values()) == [1, 1, 1, 1, 1, 2, 2]
        # the class from b through the top sample into e stays a single run
        obj = d.object("v:b>v:e:top")
        assert obj.basis == (("bot",), ("top",))


class TestBisimulationChecker:
    def test_diagram_against_itself(self):
        d = circle_diagram()
        relation = [(o.id, [[int(i == j) for j in range(o.rank)] for i in range(o.rank)], o.id)
                    for o in d.objects]
        assert check_bisimulation(d, d, relation)

    def test_interval_against_terminal(self):
        d = interval_diagram()
        relation = [(o.id, [[1]], "pt") for o in d.objects]
        assert check_bisimulation(d, terminal_diagram(), relation)

    def test_rank_mismatch_is_not_iso(self):
        d = circle_diagram()
        relation = [(o.id, [[1] for _ in range(o.rank)], "pt") for o in d.objects]
        with pytest.raises(NotIso):
            check_bisimulation(d, terminal_diagram(), relation)

    def test_wrong_pairing_fails_heredity(self):
        d = interval_diagram()
        # relate only one object; its outgoing extensions cannot close squares
        relation = [("v:0>v:0:const", [[1]], "pt")]
        assert not check_bisimulation(d, terminal_diagram(), relation)

    def test_non_integer_entries_are_not_iso(self):
        # truncating the entries would read 1.5 and -1.9 as the units 1 and -1
        d = interval_diagram()
        for eta in ([[1.5]], [[-1.9]], [[float("nan")]]):
            with pytest.raises(NotIso):
                check_bisimulation(d, terminal_diagram(),
                                   [(o.id, eta, "pt") for o in d.objects])
        assert check_bisimulation(d, terminal_diagram(),
                                  [(o.id, [[-1.0]], "pt") for o in d.objects])

    def test_entry_count_must_fill_the_shape(self):
        d = circle_diagram()
        with pytest.raises(ValueError):
            check_bisimulation(d, d, [("v:b>v:e:top", [[1, 0, 0]], "v:b>v:e:top")])
        assert check_bisimulation(d, d, [("v:b>v:e:top", [1, 0, 0, 1], "v:b>v:e:top")]) \
            == check_bisimulation(d, d, [("v:b>v:e:top", [[1, 0], [0, 1]], "v:b>v:e:top")])

    def test_deep_nesting_reads_without_recursion(self):
        def nest(eta):
            for _ in range(5000):
                eta = [eta]
            return eta

        point = terminal_diagram()
        with pytest.raises(NotIso):
            check_bisimulation(point, point, [("pt", nest([2]), "pt")])
        with pytest.raises(ValueError):
            check_bisimulation(point, point, [("pt", nest([1, 1]), "pt")])
        assert check_bisimulation(point, point, [("pt", nest(1), "pt")])

    def test_only_lists_and_tuples_nest(self):
        # a set or dict row would be read in hash order, a generator only
        # once: each is a single entry, which is not an integer
        point, d = terminal_diagram(), circle_diagram()
        for eta in ([{1}], [[{1: 1}]], {1: 1}, (v for v in [1]), [iter([1])], "1"):
            with pytest.raises(NotIso):
                check_bisimulation(point, point, [("pt", eta, "pt")])
        with pytest.raises(ValueError):
            check_bisimulation(d, d, [("v:b>v:e:top", [{1, 0}, {0, 1}], "v:b>v:e:top")])
        assert check_bisimulation(d, d, [("v:b>v:e:top", ([1, 0], (0, 1)), "v:b>v:e:top")])

    def test_circle_cannot_relate_to_terminal(self):
        d = circle_diagram()
        # full pairings hit the iso precondition on the rank-2 groups;
        # pairing only the rank-1 objects leaves squares that cannot close
        partial = [(o.id, [[1]], "pt") for o in d.objects if o.rank == 1]
        assert not check_bisimulation(d, terminal_diagram(), partial)
        with pytest.raises(NotIso):
            check_bisimulation(
                d, terminal_diagram(),
                [(o.id, [[1]] * o.rank, "pt") for o in d.objects])


def _leibniz_det(m) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


class TestExactDeterminant:
    def test_matches_the_permutation_expansion(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for _ in range(60):
                m = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                     for _ in range(n)]
                assert _det(m) == _leibniz_det(m), m

    def test_large_entry_unimodular_matrix(self):
        m = [[10 ** 9 + 1, 10 ** 9], [10 ** 9, 10 ** 9 - 1]]
        assert _det(m) == -1
        assert _is_unit(m) and dense_is_unit(Dense(2, 2, m))
        assert not _is_unit([[2, 0], [0, 1]])

    def test_bisimulation_accepts_it_on_a_rank_two_object(self):
        d = circle_diagram()
        eta = [[10 ** 9 + 1, 10 ** 9], [10 ** 9, 10 ** 9 - 1]]
        assert d.object("v:b>v:e:top").rank == 2
        assert check_bisimulation(d, d, [("v:b>v:e:top", eta, "v:b>v:e:top")])


class TestConsistencyWithComplexity:
    def test_exact_one_iff_point_like_on_corpus(self, corpus):
        checked = 0
        for g in corpus:
            try:
                d = factorization_diagram(g, [Vertex(v) for v in g.vertices])
            except InfiniteTraceSpace:
                continue
            checked += 1
            ok, _ = is_bisimilar_to_point(d)
            assert ok == (ditc(g).to_json()["lower"] == 1
                          and ditc(g).to_json()["upper"] == 1)
        assert checked > 10
