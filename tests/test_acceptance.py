"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (Fraction arithmetic, zero tolerance) except
criterion 10, which exercises the float Newton seeder.
"""

import random
import time
from fractions import Fraction as F

import pytest

from operpop.exactalg import Poly, RatFunc, log_derivative, wronskian
from operpop.critical import (
    BetheConfig,
    FertilityError,
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
from operpop.liedata import degrees_for, weyl_elements, weyl_length
from operpop.miura import (
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
from operpop.population import (
    calibrated_sequence,
    descend,
    descend_family,
    explore,
    reproduce_path,
)
from operpop.solutions import (
    TwistedMatrix,
    apply_miura,
    fold_to_A,
    rep_standard_sl,
    rep_standard_sp,
    solution_A,
    solution_BC,
    solution_general,
)

from conftest import CURATED_CRITICAL

X = Poly.x()
CANON = (F(1), F(0))


def _report(number: int, elapsed: float, message: str) -> None:
    print(f"criterion {number:2d}: PASS ({elapsed:.2f}s) - {message}")


@pytest.fixture(scope="module")
def desk():
    """Shared desk examples: problems, tuples, and explored populations."""
    half_p = problem("A", 1, [[1], [1]], [0, 1])
    half_y = PolyTuple([Poly([F(-1, 2), 1])])
    a2_p = problem("A", 2, [[1, 0], [0, 1]], [0, 1])
    a2_y = PolyTuple([Poly([F(-1, 3), 1]), Poly([F(-2, 3), 1])])
    b2_p = problem("B", 2, [[1, 0], [0, 1]], [0, 5])
    b2_y = PolyTuple([Poly([-2, 1]), Poly([-4, 1])])
    a3_p = problem("A", 3, [[1, 0, 0], [1, 0, 0]], [0, 1])
    a3_y = PolyTuple([Poly([F(-1, 2), 1]), Poly.one(), Poly.one()])
    populations = {
        ("A", 1): explore(PolyTuple.constants(1), problem("A", 1)),
        ("A", 1, "half"): explore(half_y, half_p),
        ("A", 2): explore(PolyTuple.constants(2), problem("A", 2)),
        ("B", 2): explore(PolyTuple.constants(2), problem("B", 2)),
    }
    return {
        "half": (half_p, half_y),
        "a2": (a2_p, a2_y),
        "b2": (b2_p, b2_y),
        "a3": (a3_p, a3_y),
        "populations": populations,
    }


def test_criterion_01_fertility_iff_criticality():
    started = time.perf_counter()
    checked = 0
    for key in sorted(CURATED_CRITICAL):
        for family, rank, weights, points, coords in CURATED_CRITICAL[key]:
            p = problem(family, rank, weights, points)
            config = BetheConfig.of(coords)
            residuals = bethe_residuals(config, p)
            y = config.to_tuple()
            critical = all(v == 0 for v in residuals)
            verdict = bool(is_generic(y, p)) and is_fertile(y, p)
            assert critical and verdict, (key, coords)
            # perturb each coordinate by 1/7 in turn: the verdict must flip
            for gi, group in enumerate(config.coordinates):
                for ti in range(len(group)):
                    perturbed = [list(g) for g in config.coordinates]
                    perturbed[gi][ti] += F(1, 7)
                    pc = BetheConfig.of(perturbed)
                    pres = bethe_residuals(pc, p)
                    py = pc.to_tuple()
                    pcritical = all(v == 0 for v in pres)
                    pverdict = bool(is_generic(py, p)) and is_fertile(py, p)
                    assert not pcritical, (key, coords, gi, ti)
                    assert pverdict == pcritical, (key, coords, gi, ti)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 15
    assert elapsed < 1.0
    _report(1, elapsed, f"fertility == criticality on {checked} configurations, all 1/7-perturbations flip")


def test_criterion_02_wronskian_postcondition(desk):
    started = time.perf_counter()
    rng = random.Random(42)
    instances = 0
    problems = [
        desk["half"],
        desk["a2"],
        desk["b2"],
        (problem("A", 2), PolyTuple.constants(2)),
        (problem("B", 2), PolyTuple.constants(2)),
        (problem("A", 3), PolyTuple.constants(3)),
    ]
    for p, seed in problems:
        for _ in range(14):
            y = seed
            for _step in range(3):
                i = rng.randint(1, p.rank)
                try:
                    family = descend_family(y, i, p)
                except FertilityError:
                    break
                c2 = F(rng.randint(-12, 12), rng.randint(1, 4))
                y = family.member(1, c2)
                for j in range(1, p.rank + 1):
                    try:
                        tilde = fertility_direction(y, j, p)
                    except FertilityError:
                        continue
                    if tilde is None:
                        continue
                    rhs = wronskian_rhs(y, j, p)
                    w = wronskian(y[j - 1], tilde)
                    assert not w.is_zero()
                    assert w * rhs.leading() == rhs * w.leading()
                    instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 200, instances
    assert elapsed < 10.0
    _report(2, elapsed, f"W(y_i, ~y_i) = c * rhs exactly on {instances} randomized fertile instances")


def test_criterion_03_fertility_propagation():
    started = time.perf_counter()
    rng = random.Random(7)
    exceptions = []
    cases = [
        problem("A", 2),
        problem("B", 2),
        problem("A", 2, [[1, 1]], [0]),
        problem("B", 2, [[1, 1]], [0]),
    ]
    for p in cases:
        seed = PolyTuple.constants(p.rank)
        for i in range(1, p.rank + 1):
            family = descend_family(seed, i, p)
            fertile = 0
            for _ in range(20):
                c2 = F(rng.randint(-40, 40), rng.randint(1, 7))
                member = family.member(1, c2)
                try:
                    ok = is_fertile(member, p)
                except FertilityError:
                    ok = False
                if ok:
                    fertile += 1
                else:
                    exceptions.append((p.cartan.family, i, str(c2)))
            assert fertile >= 18, (p.cartan.family, i, fertile)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, elapsed, f">=90% fertile descendants per direction; {len(exceptions)} logged exceptions")


def test_criterion_04_population_cell_tables(desk):
    started = time.perf_counter()
    expected_counts = {("A", 1): 2, ("A", 2): 6, ("B", 2): 8, ("G", 2): 12}
    for (family, rank), count in expected_counts.items():
        p = problem(family, rank)
        summary = (
            desk["populations"][(family, rank)]
            if (family, rank) in desk["populations"]
            else explore(PolyTuple.constants(rank), p)
        )
        assert len(summary) == count, (family, rank)
        predicted = {
            degrees_for(word, p.weights, (0,) * rank, p.cartan)
            for word in weyl_elements(p.cartan)
        }
        assert set(summary.cells) == predicted
        for cell in summary.cells.values():
            assert cell.dimension == weyl_length(cell.word, p.cartan)
            assert cell.degree_jumps == cell.dimension, cell
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, elapsed, "cells = |W| with oracle degree vectors for A1/A2/B2/G2; lengths = degree jumps")


def test_criterion_05_miura_gauge_square(desk):
    started = time.perf_counter()
    squares = 0
    for key in [("A", 1), ("A", 1, "half"), ("A", 2), ("B", 2)]:
        summary = desk["populations"][key]
        p = summary.problem
        for cell in summary.cells.values():
            y = cell.sample
            D = miura_from_tuple(y, p)
            for i in range(1, p.rank + 1):
                tilde = fertility_direction(y, i, p)
                assert tilde is not None, (key, cell.degrees, i)
                g = log_derivative(RatFunc(tilde, y[i - 1]))
                child = descend(y, i, CANON, p)
                assert deform(D, i, g, descendant=child) == miura_from_tuple(child, p)
                squares += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, elapsed, f"deform == miura(descend) exactly on {squares} (tuple, direction) pairs")


def test_criterion_06_riccati_identities(desk):
    started = time.perf_counter()
    rng = random.Random(13)
    checked = 0
    cases = [desk["half"], desk["a2"], desk["b2"], (problem("A", 2), PolyTuple.constants(2))]
    for p, y in cases:
        D = miura_from_tuple(y, p)
        for i in range(1, p.rank + 1):
            family = riccati_solutions(D, i)
            assert riccati_residual(family.solution(0), i, D).is_zero()
            for _ in range(10):
                c = F(rng.randint(-30, 30), rng.randint(1, 6))
                assert riccati_residual(family.solution(c), i, D).is_zero()
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(6, elapsed, f"g' + v_i g + g^2 = 0 exactly for canonical and {checked} random members")


def _conjugation_identity_holds(y, p, rep) -> bool:
    from operpop.solutions import _weight_diagonal

    ctx = twist_context(p)
    D = miura_from_tuple(y, p)
    h = _weight_diagonal(ctx, rep, y)
    lhs = apply_miura(D, rep, h).rows
    T = build_T(p)
    rhs = [[TwistedFunc.zero(ctx)] * rep.dim for _ in range(rep.dim)]
    for j in range(1, p.rank + 1):
        num, den = T[j - 1], Poly.one()
        for l in range(1, p.rank + 1):
            e = -p.cartan.a[j - 1][l - 1]
            if e >= 0:
                num = num * y[l - 1] ** e
            else:
                den = den * y[l - 1] ** (-e)
        cols = [[RatFunc.zero()] * rep.dim for _ in range(rep.dim)]
        for a, b, s in rep.F[j - 1]:
            cols[b][a] = RatFunc(num * s, den)
        M = TwistedMatrix(ctx, [0] * p.rank, cols)
        rhs = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(rhs, (h @ M).rows)]
    return all((a + b).is_zero() for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))


def test_criterion_07_conjugation_and_reduced_relations(desk):
    started = time.perf_counter()
    half_p, half_y = desk["half"]
    a2n0 = problem("A", 2)
    b2n0 = problem("B", 2)
    b2_p, b2_y = desk["b2"]

    # conjugation identity D (prod ybar^-H) = (prod ybar^-H) Dbar, entrywise
    assert _conjugation_identity_holds(half_y, half_p, rep_standard_sl(2))
    assert _conjugation_identity_holds(desk["a2"][1], desk["a2"][0], rep_standard_sl(3))
    assert _conjugation_identity_holds(b2_y, b2_p, rep_standard_sp(2))

    # exponent cancellation: prod ybar_l^(-a_jl) = T_j prod y_l^(-a_jl)
    for p, y in [desk["half"], desk["a2"], desk["b2"]]:
        ctx = twist_context(p)
        red = reduced_tuple(y, p, ctx)
        T = build_T(p)
        for j in range(1, p.rank + 1):
            lhs = TwistedFunc.one(ctx)
            num, den = T[j - 1], Poly.one()
            for l in range(1, p.rank + 1):
                e = -p.cartan.a[j - 1][l - 1]
                lhs = lhs * red[l - 1] ** e
                if e >= 0:
                    num = num * y[l - 1] ** e
                else:
                    den = den * y[l - 1] ** (-e)
            assert lhs == TwistedFunc.from_rat(ctx, RatFunc(num, den))

    # reduced Wronskian relations on the worked examples
    assert reduced_wronskian_check(reproduce_path(half_y, [1], None, half_p), half_p)
    seed2 = PolyTuple.constants(2)
    for indices in ([1, 2], [2]):
        assert reduced_wronskian_check(reproduce_path(seed2, indices, None, a2n0), a2n0)
        assert reduced_wronskian_check(reproduce_path(seed2, indices, None, b2n0), b2n0)

    # exact sl_2 normalization W(ybar, ybar^[1]) = 1 and the sl_3 relation
    ctx = twist_context(half_p)
    steps = calibrated_sequence(half_y, [1], half_p)
    ybar = TwistedFunc.term(ctx, RatFunc(half_y[0]), [F(-1, 2)])
    dbar = TwistedFunc.term(ctx, RatFunc(steps[0].diagonal), [F(-1, 2)])
    assert twisted_wronskian(ybar, dbar) == TwistedFunc.one(ctx)

    a2_p, a2_y = desk["a2"]
    ctx3 = twist_context(a2_p)
    steps3 = calibrated_sequence(a2_y, [1, 2], a2_p)
    b = a2_p.cartan.b
    red3 = lambda poly, i: TwistedFunc.term(ctx3, RatFunc(poly), [-b[i][l] for l in range(2)])
    assert twisted_wronskian(red3(a2_y[1], 1), red3(steps3[1].diagonal, 1)) == red3(
        steps3[0].diagonal, 0
    )

    # folded so_5 relation: W(ybar_2, ubar_2^[1,2]) = ybar_1^[1] ybar_1
    u, pA = fold_to_A(b2_y, b2_p)
    ctxb = twist_context(b2_p)
    bsteps = calibrated_sequence(b2_y, [1, 2], b2_p)
    asteps = calibrated_sequence(u, [1, 2], pA)
    bb = b2_p.cartan.b
    redb = lambda poly, i: TwistedFunc.term(ctxb, RatFunc(poly), [-bb[i][l] for l in range(2)])
    lhs = twisted_wronskian(redb(b2_y[1], 1), redb(asteps[1].diagonal, 1))
    rhs = redb(bsteps[0].diagonal, 0) * redb(b2_y[0], 0)
    assert lhs == rhs

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(7, elapsed, "conjugation identity and reduced Wronskian relations hold exactly")


def test_criterion_08_and_09_solutions(desk):
    started = time.perf_counter()
    rng = random.Random(99)
    solutions = []

    # type A builders: n = 0 seeds and one nontrivial-weight example each
    a_cases = [
        (problem("A", 1), PolyTuple.constants(1)),
        desk["half"],
        (problem("A", 2), PolyTuple.constants(2)),
        desk["a2"],
        (problem("A", 3), PolyTuple.constants(3)),
        desk["a3"],
    ]
    for p, y in a_cases:
        rep = rep_standard_sl(p.rank + 1)
        Y = solution_A(y, p)
        assert apply_miura(miura_from_tuple(y, p), rep, Y).is_zero()
        solutions.append(Y.rows)

    # type B builder
    for p, y in [(problem("B", 2), PolyTuple.constants(2)), desk["b2"]]:
        rep = rep_standard_sp(p.rank)
        Y = solution_BC(y, p)
        assert apply_miura(miura_from_tuple(y, p), rep, Y).is_zero()
        solutions.append(Y.rows)

    # general builder along 3 random reduced words per example
    general_cases = a_cases + [(problem("B", 2), PolyTuple.constants(2)), desk["b2"]]
    for p, y in general_cases:
        words = [w for w in weyl_elements(p.cartan) if len(w) >= 1]
        for _ in range(3):
            path = list(rng.choice(words))
            vec = solution_general(y, path, p)
            solutions.append([[v] for v in vec])

    # criterion 9: every entry's exponents lie in (1/det_d) Z^r
    for rows in solutions:
        d = None
        for row in rows:
            for v in row:
                d = v.ctx.d
                assert all((e * d).denominator == 1 for e in v.q)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(8, elapsed, f"D Y = 0 exactly for {len(solutions)} solutions (A1/A2/A3, B2, general paths)")
    _report(9, 0.0, "all solution entries have T-exponents in (1/det_d) Z^r")


def test_criterion_10_newton_seeder():
    started = time.perf_counter()
    p = problem("A", 1, [[1], [1]], [0, 1])
    result = newton_seed(p, [1], [[0.4]], max_iter=20, tol=1e-12)
    assert abs(result.coordinates[0][0] - 0.5) < 1e-9
    assert result.residual < 1e-12
    assert result.iterations <= 20
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(10, elapsed, f"converged to 1/2 in {result.iterations} iterations, residual {result.residual:.2e}")
