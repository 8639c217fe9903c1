import random
from fractions import Fraction as F

import pytest

from operpop.exactalg import Poly, wronskian
from operpop.critical import PolyTuple, build_T, fertility_direction, is_generic, problem
from operpop.liedata import degrees_for, weyl_elements, weyl_length
from operpop import population
from operpop.population import (
    ExplorationError,
    ReproductionError,
    calibrated_sequence,
    cell_of,
    descend,
    descend_family,
    explore,
    reproduce_path,
    solve_wronskian_exact,
)

X = Poly.x()
CANON = (F(1), F(0))


class TestDescend:
    def test_seed_to_x(self):
        p = problem("A", 1)
        assert descend(PolyTuple.constants(1), 1, CANON, p) == PolyTuple([X])

    def test_x_back_to_constant(self):
        p = problem("A", 1)
        assert descend(PolyTuple([X]), 1, CANON, p) == PolyTuple.constants(1)

    def test_half_example(self, half_problem, half_tuple):
        child = descend(half_tuple, 1, CANON, half_problem)
        assert child == PolyTuple([Poly([F(1, 4), F(-1, 2), 1])])

    def test_member_identities(self, half_problem, half_tuple):
        family = descend_family(half_tuple, 1, half_problem)
        assert family.member(0, 1) == half_tuple
        with pytest.raises(ValueError):
            family.member(0, 0)

    def test_infertile_errors(self):
        p = problem("A", 1, [[2]], [0])
        with pytest.raises(ReproductionError):
            descend(PolyTuple([Poly([-1, 1])]), 1, CANON, p)


class TestReproducePath:
    def test_empty_path(self, half_problem, half_tuple):
        path = reproduce_path(half_tuple, [], None, half_problem)
        assert path.last() == half_tuple
        assert path.diagonal == ()

    def test_a2_canonical(self):
        p = problem("A", 2)
        path = reproduce_path(PolyTuple.constants(2), [1, 2], None, p)
        assert path.tuples[0] == PolyTuple([X, Poly.one()])
        assert path.diagonal == (X, Poly([0, 0, 1]))  # x, then monic x^2

    def test_repeat_index_returns_to_family(self):
        p = problem("A", 1)
        path = reproduce_path(PolyTuple([X]), [1, 1], None, p)
        # second descend inverts the first up to parameter: degrees return
        assert path.tuples[-1].degrees == (1,)

    def test_error_names_step(self):
        p = problem("A", 1, [[2]], [0])
        with pytest.raises(ReproductionError, match="step 1"):
            reproduce_path(PolyTuple([Poly([-1, 1])]), [1], None, p)


class TestCalibratedSequence:
    def test_exact_wronskians_along_paths(self):
        cases = [
            ("A", 2, [1, 2]),
            ("A", 2, [1, 2, 1]),
            ("B", 2, [1, 2, 1, 2]),
            ("G", 2, [1, 2, 1]),
        ]
        for family, rank, indices in cases:
            p = problem(family, rank)
            entries = [Poly.one()] * rank
            steps = calibrated_sequence(entries, indices, p)
            current = list(entries)
            T = build_T(p)
            for step in steps:
                i = step.index
                rhs = T[i - 1]
                for j in range(rank):
                    if j != i - 1:
                        e = -p.cartan.a[i - 1][j]
                        rhs = rhs * current[j] ** e
                assert wronskian(current[i - 1], step.diagonal) == rhs
                current[i - 1] = step.diagonal

    def test_solve_wronskian_exact_nonsquarefree_base(self):
        # base x^3/3 with constant integrand: the B_2 [1,2,1,2] step
        base = X**3 * F(1, 3)
        rhs = (X**3 * F(1, 6)) ** 2 * 9  # makes rhs/base^2 constant
        d = solve_wronskian_exact(base, rhs)
        assert d is not None
        assert wronskian(base, d) == rhs

    def test_unsolvable_returns_none(self):
        assert solve_wronskian_exact(X**2, Poly.one()) is None


class TestExplore:
    @pytest.mark.parametrize(
        "family,rank,count",
        [
            ("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12),
            ("A", 3, 24), ("A", 4, 120), ("B", 3, 48), ("C", 3, 48), ("D", 4, 192),
        ],
    )
    def test_cell_counts(self, family, rank, count):
        p = problem(family, rank)
        summary = explore(PolyTuple.constants(rank), p)
        assert len(summary) == count

    def test_a2_degree_vectors(self):
        p = problem("A", 2)
        summary = explore(PolyTuple.constants(2), p)
        assert set(summary.cells) == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)}

    def test_matches_shifted_action_oracle(self):
        for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            predicted = set()
            for word in weyl_elements(p.cartan):
                predicted.add(degrees_for(word, p.weights, (0,) * rank, p.cartan))
            assert set(summary.cells) == predicted

    def test_dimensions_and_jumps(self):
        for family, rank in [("A", 2), ("B", 2)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            for cell in summary.cells.values():
                assert cell.dimension == weyl_length(cell.word, p.cartan)
                assert cell.degree_jumps == cell.dimension

    def test_samples_generic(self):
        for family, rank in [("A", 2), ("B", 2)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            for cell in summary.cells.values():
                assert is_generic(cell.sample, p), cell

    def test_nontrivial_weight_population(self, half_problem, half_tuple):
        summary = explore(half_tuple, half_problem)
        assert set(summary.cells) == {(1,), (2,)}
        assert summary.base_degrees == (1,)

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [("D", 4, [], []), ("G", 2, [[1, 0], [0, 1]], [0, 1])],
    )
    def test_one_descent_per_new_cell(self, family, rank, weights, points, monkeypatch):
        calls = []

        def counting(y, i, p):
            calls.append(i)
            return descend_family(y, i, p)

        monkeypatch.setattr(population, "descend_family", counting)
        p = problem(family, rank, weights, points)
        summary = explore(PolyTuple.constants(rank), p)
        assert len(calls) == len(summary) - 1

    def test_wrong_canonical_degree_raises(self, monkeypatch):
        def too_high(y, i, p):
            tilde = fertility_direction(y, i, p)
            return None if tilde is None else tilde * X

        monkeypatch.setattr(population, "fertility_direction", too_high)
        with pytest.raises(ExplorationError, match="predicts 1"):
            explore(PolyTuple.constants(1), problem("A", 1))

    def test_exceptional_members_recorded_not_fatal(self):
        # B_2 n=0 canonical members like (x, x^3) are non-generic; the
        # exploration logs them and continues through generic members
        summary = explore(PolyTuple.constants(2), problem("B", 2))
        assert summary.exceptional
        assert len(summary) == 8


class TestCellOf:
    def test_identity(self, b2_problem, b2_tuple):
        assert cell_of(b2_tuple, b2_tuple.degrees, b2_problem) == ()

    def test_half(self, half_problem, half_tuple):
        child = descend(half_tuple, 1, CANON, half_problem)
        assert cell_of(child, (1,), half_problem) == (1,)

    def test_a2_longest(self):
        p = problem("A", 2)
        sample = PolyTuple([Poly([-1, 0, 1]), Poly([1, 0, 1])])
        assert cell_of(sample, (0, 0), p) in ((1, 2, 1), (2, 1, 2))

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [
            ("B", 2, [[1, 0], [0, 1]], [0, 1]),
            ("A", 3, [], []),
            ("G", 2, [[1, 0], [0, 1]], [0, 1]),
            ("D", 4, [], []),
        ],
    )
    def test_agrees_with_explore_labels(self, family, rank, weights, points):
        p = problem(family, rank, weights, points)
        summary = explore(PolyTuple.constants(rank), p)
        for cell in summary.cells.values():
            assert cell_of(cell.sample, summary.base_degrees, p) == cell.word


class TestFertilityPropagation:
    def test_random_parameter_descendants_mostly_fertile(self):
        rng = random.Random(17)
        for p in (problem("A", 2), problem("B", 2), problem("A", 2, [[1, 1]], [0])):
            seed = PolyTuple.constants(p.rank)
            for i in range(1, p.rank + 1):
                family = descend_family(seed, i, p)
                fertile = 0
                for _ in range(20):
                    c2 = F(rng.randint(-30, 30), rng.randint(1, 7))
                    member = family.member(1, c2)
                    try:
                        ok = all(
                            fertility_direction(member, j, p) is not None
                            for j in range(1, p.rank + 1)
                        )
                    except Exception:
                        ok = False
                    fertile += ok
                assert fertile >= 18
