from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from operpop.exactalg import Poly, wronskian
from operpop.critical import (
    BetheConfig,
    CollisionError,
    FertilityError,
    NewtonError,
    PolyTuple,
    bethe_residuals,
    build_T,
    fertility_direction,
    is_fertile,
    is_generic,
    newton_seed,
    problem,
    wronskian_rhs,
)
from operpop.liedata import shifted_action, weight_at_infinity

from conftest import CURATED_CRITICAL

X = Poly.x()


class TestProblemData:
    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            problem("A", 1, [[1], [1]], [0, 0])

    def test_dominance_required(self):
        with pytest.raises(ValueError):
            problem("A", 1, [[-1]], [0])
        with pytest.raises(ValueError):
            problem("A", 2, [[F(1, 2), 0]], [0])


class TestBuildT:
    def test_empty_product(self):
        assert build_T(problem("A", 2)) == [Poly.one(), Poly.one()]

    def test_two_singlets(self):
        p = problem("A", 1, [[1], [1]], [0, 1])
        assert build_T(p) == [Poly([0, -1, 1])]

    def test_double_weight(self):
        p = problem("A", 1, [[2]], [0])
        assert build_T(p) == [Poly([0, 0, 1])]

    def test_weight_with_zero_coordinates(self):
        # weighted A3: a zero coordinate contributes no factor at its point
        p = problem("A", 3, [[1, 0, 0], [0, 0, 2]], [F(1, 2), -3])
        T = [Poly.from_roots([F(1, 2)]), Poly.one(), Poly.from_roots([-3, -3])]
        assert build_T(p) == T and p.T == tuple(T)


class TestIsGeneric:
    def test_half_example(self, half_problem, half_tuple):
        assert is_generic(half_tuple, half_problem)

    def test_multiple_root(self, half_problem):
        report = is_generic(PolyTuple([X * X]), half_problem)
        assert not report and "multiple root" in report.reason

    def test_shared_root_with_T(self, half_problem):
        report = is_generic(PolyTuple([X]), half_problem)
        assert not report and "T_1" in report.reason

    def test_common_root_linked_nodes(self):
        report = is_generic(PolyTuple([X, X]), problem("A", 2))
        assert not report and "linked" in report.reason


class TestBetheResiduals:
    def test_half(self, half_problem):
        assert bethe_residuals(BetheConfig.of([["1/2"]]), half_problem) == [0]

    def test_third(self, half_problem):
        assert bethe_residuals(BetheConfig.of([["1/3"]]), half_problem) == [F(-3, 2)]

    def test_empty(self):
        assert bethe_residuals(BetheConfig.of([[], []]), problem("A", 2)) == []

    def test_collision_names_pair(self, half_problem):
        p = problem("A", 2, [[1, 1]], [0])
        with pytest.raises(CollisionError, match="t_1"):
            bethe_residuals(BetheConfig.of([["1/2"], ["1/2"]]), p)
        with pytest.raises(CollisionError, match="marked point"):
            bethe_residuals(BetheConfig.of([["0"]]), half_problem)


class TestFertility:
    def test_half_canonical(self, half_problem, half_tuple):
        tilde = fertility_direction(half_tuple, 1, half_problem)
        assert tilde == Poly([F(1, 4), F(-1, 2), 1])
        rhs = wronskian_rhs(half_tuple, 1, half_problem)
        w = wronskian(half_tuple[0], tilde)
        assert w * rhs.leading() == rhs * w.leading()  # proportional

    def test_constant_seed(self):
        p = problem("B", 2)
        y = PolyTuple.constants(2)
        for i in (1, 2):
            assert fertility_direction(y, i, p) == X
        assert is_fertile(y, p)

    def test_obstruction(self):
        p = problem("A", 1, [[2]], [0])
        y = PolyTuple([Poly([-1, 1])])
        assert fertility_direction(y, 1, p) is None
        assert not is_fertile(y, p)

    def test_precondition(self, half_problem):
        with pytest.raises(FertilityError):
            fertility_direction(PolyTuple([X * X]), 1, half_problem)

    def test_half_is_fertile(self, half_problem, half_tuple):
        assert is_fertile(half_tuple, half_problem)

    def test_degree_law(self, a2_problem, a2_tuple):
        # when deg ~y != deg y the weight at infinity reflects
        c = a2_problem.cartan
        lam = weight_at_infinity(a2_problem.weights, a2_tuple.degrees, c)
        for i in (1, 2):
            tilde = fertility_direction(a2_tuple, i, a2_problem)
            if tilde.degree() == a2_tuple.degrees[i - 1]:
                continue
            degs = list(a2_tuple.degrees)
            degs[i - 1] = tilde.degree()
            lam_new = weight_at_infinity(a2_problem.weights, degs, c)
            assert lam_new == shifted_action([i], lam, c)


# Entries as calibrated sequences pass them: neither monic nor nonconstant.
RAW_ENTRIES = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly).filter(bool)


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from([("A", 3, [], []), ("D", 4, [], []), ("B", 3, [[0, 1, 0]], [0]), ("G", 2, [[1, 0]], [2])]),
    data=st.data(),
)
def test_wronskian_rhs_is_the_full_product(case, data):
    family, rank, weights, points = case
    p = problem(family, rank, weights, points)
    y = [data.draw(RAW_ENTRIES) for _ in range(rank)]
    for i in range(1, rank + 1):
        expected = build_T(p)[i - 1]
        for j in range(rank):
            if j != i - 1:
                expected = expected * y[j] ** -p.cartan.a[i - 1][j]
        assert wronskian_rhs(y, i, p) == expected


class TestCriticalityCrossCheck:
    @pytest.mark.parametrize("key", sorted(CURATED_CRITICAL))
    def test_fertility_iff_zero_residuals(self, key):
        for family, rank, weights, points, coords in CURATED_CRITICAL[key]:
            p = problem(family, rank, weights, points)
            config = BetheConfig.of(coords)
            residuals = bethe_residuals(config, p)
            assert all(v == 0 for v in residuals), (key, coords)
            y = config.to_tuple()
            assert is_generic(y, p)
            assert is_fertile(y, p)


class TestNewtonSeed:
    def test_half_example(self, half_problem):
        result = newton_seed(half_problem, [1], [[0.4]], max_iter=20, tol=1e-12)
        assert abs(result.coordinates[0][0] - 0.5) < 1e-10
        assert result.residual < 1e-12
        assert result.iterations <= 20

    def test_empty(self):
        result = newton_seed(problem("A", 2), [0, 0], [[], []])
        assert result.residual == 0.0

    def test_start_at_pole(self, half_problem):
        with pytest.raises(NewtonError):
            newton_seed(half_problem, [1], [[0.0]])

    def test_residual_decreases(self, b2_problem):
        # damped iterations never increase the max-norm residual
        import operpop.critical as crit

        shape = [1, 1]
        norms = [max(abs(v) for v in crit._residuals([[1.7], [3.1]], b2_problem, float))]
        result = newton_seed(b2_problem, shape, [[1.7], [3.1]], max_iter=30)
        assert result.residual <= norms[0]
        assert abs(result.coordinates[0][0] - 2.0) < 1e-8
        assert abs(result.coordinates[1][0] - 4.0) < 1e-8
