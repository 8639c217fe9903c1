import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CURATED_CRITICAL, RESIDUAL_CASES, residual_case
from operpop import miura
from operpop.exactalg import Poly, RatFunc, log_derivative
from operpop.critical import BetheConfig, PolyTuple, build_T, problem
from operpop.miura import (
    DeformationError,
    TwistedFunc,
    deform,
    miura_from_tuple,
    reduced_tuple,
    reduced_wronskian_check,
    riccati_residual,
    riccati_solutions,
    twist_context,
    twisted_wronskian,
)
from operpop.population import calibrated_sequence, descend, explore, reproduce_path

X = Poly.x()
CANON = (F(1), F(0))


class TestMiuraFromTuple:
    def test_trivial(self):
        p = problem("A", 1)
        D = miura_from_tuple(PolyTuple.constants(1), p)
        assert D.h_coords == (RatFunc.zero(),)
        assert D.pairing(1).is_zero()

    def test_half_pairing(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        T = Poly([0, -1, 1])
        y = half_tuple[0]
        assert D.pairing(1) == -log_derivative(RatFunc(T, y * y))

    def test_a2_pairing_shape(self, a2_problem, a2_tuple):
        D = miura_from_tuple(a2_tuple, a2_problem)
        T = build_T(a2_problem)
        y1, y2 = a2_tuple
        assert D.pairing(1) == -log_derivative(RatFunc(T[0] * y2, y1 * y1))
        assert D.pairing(2) == -log_derivative(RatFunc(T[1] * y1, y2 * y2))


def incremental_h_coords(y, p):
    """c_j = log'(y_j) - sum_l b_jl log'(T_l), one reduced RatFunc addition
    at a time: the oper's coordinates by a route of their own."""
    log_T = [log_derivative(RatFunc(t)) if t.degree() > 0 else RatFunc.zero() for t in p.T]
    coords = []
    for j in range(p.rank):
        c = log_derivative(RatFunc(y[j])) if y[j].degree() > 0 else RatFunc.zero()
        for l in range(p.rank):
            if p.cartan.b[j][l] != 0 and not log_T[l].is_zero():
                c = c - log_T[l] * p.cartan.b[j][l]
        coords.append(c)
    return tuple(coords)


# weighted A3 and B2 problems whose populations give the cell samples below
CELL_PROBLEMS = {
    "a3_cells": ("A", 3, [[1, 0, 0], [0, 0, 1]], [0, 2]),
    "b2_cells": ("B", 2, [[1, 0], [0, 1]], [1, -2]),
    "c3_cells": ("C", 3, [[0, 1, 0]], [0]),
}


def oracle_groups(name, request):
    """[(problem, tuples)]: a residual case with every tuple along its path,
    the desk examples of one type, or the cell samples of a population."""
    if name in RESIDUAL_CASES:
        p, y, path = residual_case(name, request)
        return [(p, [y, *reproduce_path(y, path, None, p).tuples])]
    if name in CURATED_CRITICAL:
        return [
            (problem(family, rank, weights, points), [BetheConfig.of(coords).to_tuple()])
            for family, rank, weights, points, coords in CURATED_CRITICAL[name]
        ]
    family, rank, weights, points = CELL_PROBLEMS[name]
    p = problem(family, rank, weights, points)
    return [(p, [cell.sample for cell in explore(PolyTuple.constants(rank), p).cells.values()])]


ORACLE_CASES = sorted(RESIDUAL_CASES) + sorted(CURATED_CRITICAL) + sorted(CELL_PROBLEMS)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_h_coords_match_the_incremental_formula(name, request):
    checked = 0
    for p, tuples in oracle_groups(name, request):
        for y in tuples:
            assert miura_from_tuple(y, p).h_coords == incremental_h_coords(y, p)
            checked += 1
    assert checked >= 1


@pytest.mark.parametrize("name", ["a2", "b2", "a3", "a3_cells", "b2_cells", "c3_cells"])
def test_a_corrupted_coordinate_is_caught(name, request, monkeypatch):
    # double the numerator of coordinate j: the pairings v = a c change, so the
    # cross-multiplied identity fails in some direction
    honest = miura._h_coordinate
    corrupted = 0
    for p, tuples in oracle_groups(name, request):
        for y in tuples:
            coords = miura_from_tuple(y, p).h_coords
            for j in range(p.rank):
                if coords[j].is_zero():
                    continue  # doubling zero changes nothing
                calls = iter(range(p.rank))

                def doubled(y_j, T, b_row, j=j, calls=calls):
                    c = honest(y_j, T, b_row)
                    return RatFunc(c.num * 2, c.den) if next(calls) == j else c

                monkeypatch.setattr(miura, "_h_coordinate", doubled)
                with pytest.raises(AssertionError, match="oper pairing invariant failed"):
                    miura_from_tuple(y, p)
                monkeypatch.setattr(miura, "_h_coordinate", honest)
                corrupted += 1
    assert corrupted >= 2


@pytest.mark.parametrize("j", [1, 2])
def test_a_pairing_residual_with_a_root_at_four_is_caught(a2_problem, a2_tuple, monkeypatch, j):
    # c_j + (x - 4) changes the residual of direction i by a_ij (x - 4) W y_i
    # times the product of the denominators: nonzero, yet zero at x = 4
    honest, decide, decisions = miura._h_coordinate, miura._identity_holds, []
    calls = iter(range(a2_problem.rank))

    def shifted(y_j, T, b_row):
        c = honest(y_j, T, b_row)
        return RatFunc(c.num + (X - Poly.const(4)) * c.den, c.den) if next(calls) == j - 1 else c

    def recorded(formula, groups):
        decisions.append(decide(formula, groups))
        return decisions[-1]

    monkeypatch.setattr(miura, "_h_coordinate", shifted)
    monkeypatch.setattr(miura, "_identity_holds", recorded)
    with pytest.raises(AssertionError, match="oper pairing invariant failed in direction 1"):
        miura_from_tuple(a2_tuple, a2_problem)
    assert decisions == [False]


class TestRiccati:
    def test_zero_solution(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        assert riccati_residual(RatFunc.zero(), 1, D).is_zero()

    def test_canonical_solution(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        family = riccati_solutions(D, 1)
        assert family.canonical == Poly([F(1, 4), F(-1, 2), 1])
        assert riccati_residual(family.solution(0), 1, D).is_zero()

    def test_constant_is_not_solution(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        res = riccati_residual(RatFunc.one(), 1, D)
        assert res == D.pairing(1) + RatFunc.one()
        assert not res.is_zero()

    def test_random_family_members(self, b2_problem, b2_tuple):
        rng = random.Random(23)
        D = miura_from_tuple(b2_tuple, b2_problem)
        for i in (1, 2):
            family = riccati_solutions(D, i)
            for _ in range(10):
                c = F(rng.randint(-20, 20), rng.randint(1, 5))
                assert riccati_residual(family.solution(c), i, D).is_zero()

    def test_infertile_direction_errors(self):
        p = problem("A", 1, [[2]], [0])
        y = PolyTuple([Poly([-1, 1])])
        D = miura_from_tuple(y, p)
        with pytest.raises(DeformationError, match="deformable"):
            riccati_solutions(D, 1)


class TestDeform:
    def test_identity_deformation(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        assert deform(D, 1, RatFunc.zero()) == D

    def test_gauge_square_half(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        tilde = riccati_solutions(D, 1).canonical
        g = log_derivative(RatFunc(tilde, half_tuple[0]))
        child = descend(half_tuple, 1, CANON, half_problem)
        assert deform(D, 1, g, descendant=child) == miura_from_tuple(child, half_problem)

    def test_a2_chain_composition(self):
        p = problem("A", 2)
        y0 = PolyTuple.constants(2)
        D0 = miura_from_tuple(y0, p)
        y1 = descend(y0, 1, CANON, p)
        g1 = log_derivative(RatFunc(riccati_solutions(D0, 1).canonical, y0[0]))
        D1 = deform(D0, 1, g1, descendant=y1)
        assert D1 == miura_from_tuple(y1, p)
        y2 = descend(y1, 2, CANON, p)
        g2 = log_derivative(RatFunc(riccati_solutions(D1, 2).canonical, y1[1]))
        D2 = deform(D1, 2, g2, descendant=y2)
        assert D2 == miura_from_tuple(y2, p)

    def test_nonsolution_rejected(self, half_problem, half_tuple):
        D = miura_from_tuple(half_tuple, half_problem)
        with pytest.raises(DeformationError):
            deform(D, 1, RatFunc.one())


class TestReducedTuple:
    def test_sl2_exponent(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        red = reduced_tuple(half_tuple, half_problem, ctx)
        assert red[0] == TwistedFunc.term(ctx, RatFunc(half_tuple[0]), [F(-1, 2)])

    def test_sl3_exponents(self, a2_problem, a2_tuple):
        ctx = twist_context(a2_problem)
        red = reduced_tuple(a2_tuple, a2_problem, ctx)
        expected0 = TwistedFunc.term(ctx, RatFunc(a2_tuple[0]), [F(-2, 3), F(-1, 3)])
        expected1 = TwistedFunc.term(ctx, RatFunc(a2_tuple[1]), [F(-1, 3), F(-2, 3)])
        assert red == [expected0, expected1]

    def test_trivial_T(self):
        p = problem("A", 2)
        ctx = twist_context(p)
        red = reduced_tuple(PolyTuple.constants(2), p, ctx)
        assert red == [TwistedFunc.one(ctx), TwistedFunc.one(ctx)]

    def test_b2_exponents(self):
        # inverse Cartan of B_2 is [[1, 1/2], [1, 1]]
        p = problem("B", 2, [[1, 0], [0, 1]], [0, 5])
        ctx = twist_context(p)
        red = reduced_tuple(PolyTuple([Poly([-2, 1]), Poly([-4, 1])]), p, ctx)
        assert red[0] == TwistedFunc.term(ctx, RatFunc(Poly([-2, 1])), [F(-1), F(-1, 2)])
        assert red[1] == TwistedFunc.term(ctx, RatFunc(Poly([-4, 1])), [F(-1), F(-1)])


class TestTwistedOps:
    def test_chain_rule(self, half_problem):
        ctx = twist_context(half_problem)
        half_power = TwistedFunc.t_power(ctx, 1, F(1, 2))
        T = ctx.T[0]
        expected = half_power * (log_derivative(RatFunc(T)) * F(1, 2))
        assert half_power.derivative() == expected

    def test_single_term_inverse(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        ybar = reduced_tuple(half_tuple, half_problem, ctx)[0]
        assert ybar * ybar**-1 == TwistedFunc.one(ctx)

    def test_reduced_wronskian_is_one(self, half_problem, half_tuple):
        # W(ybar, ybar^[1]) = 1 for the exactly calibrated sequence
        ctx = twist_context(half_problem)
        steps = calibrated_sequence(half_tuple, [1], half_problem)
        ybar = TwistedFunc.term(ctx, RatFunc(half_tuple[0]), [F(-1, 2)])
        dbar = TwistedFunc.term(ctx, RatFunc(steps[0].diagonal), [F(-1, 2)])
        assert twisted_wronskian(ybar, dbar) == TwistedFunc.one(ctx)

    def test_rational_function_times_twisted_commutes(self, half_problem):
        # RatFunc defers to TwistedFunc for an operand it does not know
        ctx = twist_context(half_problem)
        f = RatFunc(Poly([3, 1]), Poly([1, 1]))
        t = TwistedFunc.term(ctx, RatFunc(Poly([1, 2])), [F(1, 2)])
        assert f * t == t * f == TwistedFunc.term(ctx, f * Poly([1, 2]), [F(1, 2)])

    def test_adding_different_twists_raises(self, half_problem):
        ctx = twist_context(half_problem)
        with pytest.raises(ValueError, match="twists"):
            TwistedFunc.one(ctx) + TwistedFunc.t_power(ctx, 1, F(1, 2))

    def test_rational_power_of_non_monomial_raises(self, half_problem):
        ctx = twist_context(half_problem)
        s = TwistedFunc.term(ctx, RatFunc(Poly([1, 1])), [F(1, 2)])
        with pytest.raises(ValueError, match="monomials"):
            s ** F(1, 2)

    def test_fold_relation(self, half_problem):
        # (T^(1/2))^2 folds back to T itself
        ctx = twist_context(half_problem)
        half_power = TwistedFunc.t_power(ctx, 1, F(1, 2))
        assert half_power**2 == TwistedFunc.from_rat(ctx, ctx.T[0])

    def test_derivation_property(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        rng = random.Random(31)
        for _ in range(25):
            u = TwistedFunc.term(
                ctx,
                RatFunc(Poly([rng.randint(-3, 3) for _ in range(3)]), Poly([rng.randint(1, 3), 1])),
                [F(rng.randint(0, 1), 2)],
            )
            v = TwistedFunc.term(
                ctx,
                RatFunc(Poly([rng.randint(-3, 3) for _ in range(2)])) + rng.randint(-2, 2),
                [F(rng.randint(0, 1), 2)],
            )
            if u.is_zero() or v.is_zero():
                continue
            assert (u * v).derivative() == u.derivative() * v + u * v.derivative()


# ---------------------------------------------------------------------------
# Field laws of f * T^q on A2 (d = 3) and B2 (d = 2) contexts
# ---------------------------------------------------------------------------

CONTEXTS = {
    "a2": twist_context(problem("A", 2, [[1, 0], [0, 1]], [0, 1])),  # T = (x, x - 1)
    "b2": twist_context(problem("B", 2, [[1, 0], [0, 1]], [0, 5])),  # T = (x, x - 5)
}
SMALL_POLYS = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
MONIC_DENS = st.lists(st.integers(-2, 2), max_size=2).map(Poly.from_roots)


@st.composite
def twisted_values(draw, ctx):
    """A nonzero f * T^q with q drawn from (1/d)Z^r on both sides of [0, 1)."""
    num = draw(SMALL_POLYS.filter(bool))
    q = [F(draw(st.integers(-2 * ctx.d, 2 * ctx.d)), ctx.d) for _ in range(ctx.rank)]
    return TwistedFunc.term(ctx, RatFunc(num, draw(MONIC_DENS)), q)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CONTEXTS)))
def test_twisted_field_laws(data, name):
    ctx = CONTEXTS[name]
    u, v = data.draw(twisted_values(ctx)), data.draw(twisted_values(ctx))
    assert (u * v).derivative() == u.derivative() * v + u * v.derivative()
    assert u * u**-1 == TwistedFunc.one(ctx)

    l = data.draw(st.integers(1, ctx.rank))
    a = F(data.draw(st.integers(-2 * ctx.d, 2 * ctx.d)), ctx.d)
    k = data.draw(st.integers(-3, 3))
    assert TwistedFunc.t_power(ctx, l, a) ** k == TwistedFunc.t_power(ctx, l, a * k)

    # zero is built at an arbitrary twist, yet it is one value: the identity for +
    zeros = [TwistedFunc.term(ctx, RatFunc.zero(), w.q) for w in (u, v)] + [TwistedFunc.zero(ctx)]
    for zero in zeros:
        assert zero.is_zero() and zero + u == u and u + zero == u
        assert zero == zeros[-1] and hash(zero) == hash(zeros[-1])


class TestReducedWronskianCheck:
    def test_sl2_path(self, half_problem, half_tuple):
        path = reproduce_path(half_tuple, [1], None, half_problem)
        assert reduced_wronskian_check(path, half_problem)

    def test_sl3_paths(self):
        p = problem("A", 2)
        seed = PolyTuple.constants(2)
        for indices in ([1, 2], [2], [2, 1], [1, 2, 1]):
            path = reproduce_path(seed, indices, None, p)
            check = reduced_wronskian_check(path, p)
            assert check.ok, (indices, check)

    def test_sl3_relation_exact(self, a2_problem, a2_tuple):
        # W(ybar_2, ybar_2^[1,2]) = ybar_1^[1] for calibrated sequences
        ctx = twist_context(a2_problem)
        steps = calibrated_sequence(a2_tuple, [1, 2], a2_problem)
        b = a2_problem.cartan.b
        red = lambda poly, i: TwistedFunc.term(
            ctx, RatFunc(poly), [-b[i][l] for l in range(2)]
        )
        lhs = twisted_wronskian(red(a2_tuple[1], 1), red(steps[1].diagonal, 1))
        rhs = red(steps[0].diagonal, 0)
        assert lhs == rhs

    def test_b2_paths(self):
        p = problem("B", 2)
        seed = PolyTuple.constants(2)
        for indices in ([1, 2], [2], [2, 1]):
            path = reproduce_path(seed, indices, None, p)
            assert reduced_wronskian_check(path, p)

    def test_empty_path_vacuous(self, half_problem, half_tuple):
        path = reproduce_path(half_tuple, [], None, half_problem)
        assert reduced_wronskian_check(path, half_problem)

    def test_failure_reports_step(self, half_problem, half_tuple):
        import dataclasses

        path = reproduce_path(half_tuple, [1], None, half_problem)
        broken = dataclasses.replace(path, tuples=(PolyTuple([Poly([1, 0, 0, 1])]),))
        check = reduced_wronskian_check(broken, half_problem)
        assert not check.ok and check.failing_step == 1
