from fractions import Fraction as F
from functools import cache, reduce

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import RESIDUAL_CASES, residual_case, sympy_diag, sympy_matrix

from operpop.exactalg import Poly, RatFunc, poly_gcd
from operpop.critical import PolyTuple, problem
from operpop.liedata import cartan_data, langlands_dual, weyl_elements
from operpop.miura import TwistedFunc, miura_from_tuple, twist_context
from operpop.population import ReproductionError, calibrated_sequence, explore
from operpop import solutions
from operpop.solutions import (
    MatrixRep,
    RepresentationError,
    VerificationError,
    TwistedMatrix,
    UnsupportedTypeError,
    apply_miura,
    exp_generator,
    fold_to_A,
    nested_bracket,
    rep_minuscule,
    rep_standard_sl,
    rep_standard_sp,
    solution_A,
    solution_BC,
    solution_general,
)

X = Poly.x()


def from_rows(ctx, q, rows, den):
    """T^q rows / den: every entry over the one den."""
    return TwistedMatrix(ctx, q, [[RatFunc(v, den) for v in col] for col in zip(*rows)])


def unit_columns(ctx, n):
    """The n x n identity with twist 0."""
    cols = [[RatFunc(int(i == j)) for i in range(n)] for j in range(n)]
    return TwistedMatrix(ctx, (0,) * ctx.rank, cols)


def diag(*values):
    return sympy_diag(values)


def unit(n, i, j):
    """Elementary matrix with a 1 in (row i, column j), 1-based."""
    return sympy.SparseMatrix(n, n, {(i - 1, j - 1): 1})


def bracket(a, b):
    return a * b - b * a


def as_sympy(rep):
    """(F, E, H, coweights) of a rep as lists of sympy matrices."""
    n = rep.dim
    return (
        [sympy_matrix(f, n) for f in rep.F],
        [sympy_matrix(e, n) for e in rep.E],
        [sympy_diag(h) for h in rep.H],
        [sympy_diag(w) for w in rep.coweights],
    )


def _hand_built(family, rank, F_mats, H):
    b = cartan_data(family, rank).b
    n = F_mats[0].rows
    coweights = [sum((H[l] * sympy.Rational(b[l][j]) for l in range(rank)), sympy.zeros(n)) for j in range(rank)]
    return F_mats, [f.T for f in F_mats], H, coweights


def hand_built_sl(m):
    """sl_m in the unit-matrix convention: F_i = e_(i+1, i), H_i = e_(i, i) - e_(i+1, i+1)."""
    F_mats = [unit(m, i + 1, i) for i in range(1, m)]
    H = [unit(m, i, i) - unit(m, i + 1, i + 1) for i in range(1, m)]
    return _hand_built("A", m - 1, F_mats, H)


def hand_built_sp(r):
    """sp_2r in the unit-matrix convention: F_i = e_(i+1, i) + e_(2r-i+1, 2r-i), F_r = e_(r+1, r)."""
    n = 2 * r
    F_mats = [unit(n, i + 1, i) + unit(n, n - i + 1, n - i) for i in range(1, r)] + [unit(n, r + 1, r)]
    H = [bracket(f.T, f) for f in F_mats]
    return _hand_built("B", r, F_mats, H)


@pytest.mark.parametrize("family, rank", [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)])
def test_minuscule_orbit_matches_the_hand_built_reps(family, rank):
    reference = hand_built_sl(rank + 1) if family == "A" else hand_built_sp(rank)
    rep = rep_minuscule(family, rank)
    assert as_sympy(rep) == reference
    assert rep.lowest == rep.dim - 1 and rep.dual_cartan == langlands_dual(cartan_data(family, rank)).a


@pytest.mark.parametrize(
    "family, rank, dim", [("C", 3, 8), ("C", 4, 16), ("D", 4, 8), ("D", 5, 10), ("E", 6, 27), ("E", 7, 56)]
)
def test_minuscule_dimensions(family, rank, dim):
    rep = rep_minuscule(family, rank)
    assert rep.dim == dim and rep.dual_cartan == langlands_dual(cartan_data(family, rank)).a


def _replaced(items, k, item):
    return items[:k] + (item,) + items[k + 1 :]


def corruptions(rep):
    """(the relation the check must name, the fields of rep with one corruption)."""
    (a, b, s), rest = rep.F[1][0], rep.F[1][1:]
    H, w = rep.H[0], rep.coweights[0]
    return [
        (r"\[E_\d, F_2\]", {"F": _replaced(rep.F, 1, ((a, b, 2 * s),) + rest)}),
        (r"\[H_\d, F_2\]", {"F": _replaced(rep.F, 1, tuple(sorted((((a + 1) % rep.dim, b, s),) + rest)))}),
        (r"\[E_1, F_1\]", {"E": _replaced(rep.E, 0, rep.E[0][1:])}),
        (r"\[H_1, F_\d\]", {"H": _replaced(rep.H, 0, (H[0] + 1,) + H[1:])}),
        (r"\[H_1, F_1\]", {"F": _replaced(rep.F, 0, tuple(sorted(rep.F[0] + ((a, a, 1),))))}),
        ("coweight pairing", {"coweights": _replaced(rep.coweights, 0, (w[0] + 1,) + w[1:])}),
        ("lowest weight vector", {"lowest": 0}),
    ]


@pytest.mark.parametrize("family, rank", [("D", 4), ("B", 2)])
def test_validation_rejects_a_corrupted_rep(family, rank):
    # one F_2 value doubled, one F_2 entry moved a row down, one E_1 entry
    # dropped, H_1 and w_1 bumped at the highest weight, a diagonal entry
    # added to F_1 (not nilpotent), the lowest vector moved to the highest
    import dataclasses

    rep = rep_minuscule(family, rank)
    solutions._validate_rep(rep)
    for relation, fields in corruptions(rep):
        with pytest.raises(RepresentationError, match=relation):
            solutions._validate_rep(dataclasses.replace(rep, **fields))


@pytest.mark.parametrize("family, rank", [("G", 2), ("F", 4), ("E", 8)])
def test_no_minuscule_rep(family, rank):
    with pytest.raises(UnsupportedTypeError, match=f"{family}_{rank} has no minuscule"):
        rep_minuscule(family, rank)


class TestRepSL:
    def test_sl2_basics(self):
        rep = rep_standard_sl(2)
        assert sympy_diag(rep.H[0]) == diag(1, -1)
        assert sympy_matrix(rep.F[0], 2) == unit(2, 2, 1)

    def test_sl3_bracket(self):
        F_mats, E_mats, H, _ = as_sympy(rep_standard_sl(3))
        assert bracket(E_mats[0], F_mats[0]) == H[0]

    def test_sl3_coweight(self):
        rep = rep_standard_sl(3)
        assert sympy_diag(rep.coweights[0]) == diag(F(2, 3), F(-1, 3), F(-1, 3))

    def test_too_small(self):
        with pytest.raises(RepresentationError):
            rep_standard_sl(1)


class TestRepSP:
    def test_h2(self):
        F_mats, E_mats, H, _ = as_sympy(rep_standard_sp(2))
        assert H[1] == diag(0, 1, -1, 0)
        assert bracket(E_mats[1], F_mats[1]) == H[1]

    def test_h1_f2_bracket(self):
        # [H_1, F_2] = 2 F_2: the dual (C_2) Cartan matrix entry -C_{1,2}
        rep = rep_standard_sp(2)
        F_mats, _, H, _ = as_sympy(rep)
        assert bracket(H[0], F_mats[1]) == 2 * F_mats[1]
        assert rep.dual_cartan[0][1] == -2

    def test_nilpotency(self):
        for f in as_sympy(rep_standard_sp(3))[0]:
            assert (f * f * f).is_zero_matrix

    def test_coweights(self):
        rep = rep_standard_sp(2)
        assert sympy_diag(rep.coweights[0]) == diag(1, 0, 0, -1)
        assert sympy_diag(rep.coweights[1]) == diag(F(1, 2), F(1, 2), F(-1, 2), F(-1, 2))


class TestNestedBracket:
    def test_base_case(self):
        rep = rep_standard_sl(3)
        assert nested_bracket(rep, "F", 1, 1) == rep.F[0]
        assert nested_bracket(rep, "F", 2, 2) == rep.F[1]

    def test_sl3_f12(self):
        rep = rep_standard_sl(3)
        assert sympy_matrix(nested_bracket(rep, "F", 1, 2), 3) == unit(3, 3, 1)

    def test_serre_vanishing(self):
        F_mats = as_sympy(rep_standard_sl(3))[0]
        inner = bracket(F_mats[0], F_mats[1])
        assert bracket(F_mats[0], inner).is_zero_matrix

    def test_sp4_double(self):
        rep = rep_standard_sp(2)
        F_mats = as_sympy(rep)[0]
        assert sympy_matrix(nested_bracket(rep, "double", 1, 2), 4) == -2 * unit(4, 4, 1)
        assert sympy_matrix(nested_bracket(rep, "Fstar", 1, 2), 4) == bracket(F_mats[1], F_mats[0])

    def test_out_of_range(self):
        rep = rep_standard_sl(3)
        with pytest.raises(ValueError):
            nested_bracket(rep, "F", 2, 1)
        with pytest.raises(ValueError):
            nested_bracket(rep, "Fstar", 1, 3)


class TestExpNilpotent:
    def test_exp_zero(self, half_problem):
        ctx = twist_context(half_problem)
        assert exp_generator((), RatFunc(X), ctx, 3) == unit_columns(ctx, 3)

    def test_two_by_two(self, half_problem):
        ctx = twist_context(half_problem)
        rep = rep_standard_sl(2)
        g = RatFunc(X)
        E = exp_generator(rep.F[0], g, ctx, rep.dim)
        assert E.rows[0][0] == TwistedFunc.one(ctx)
        assert E.rows[1][0] == TwistedFunc.from_rat(ctx, g)

    def test_inverse(self, half_problem):
        ctx = twist_context(half_problem)
        rep = rep_standard_sp(2)
        g = RatFunc(Poly([1, 2, 1]), Poly([3, 1]))
        prod = exp_generator(rep.F[0], g, ctx, 4) @ exp_generator(rep.F[0], -g, ctx, 4)
        assert prod == unit_columns(ctx, 4)

    def test_non_nilpotent_rejected(self, half_problem):
        ctx = twist_context(half_problem)
        with pytest.raises(ValueError, match="nilpotent"):
            exp_generator(_entries([[1, 0], [0, 1]]), RatFunc(X), ctx, 2)


class TestSolutionA:
    def test_trivial_seed_unipotent(self):
        p = problem("A", 1)
        ctx = twist_context(p)
        Y = solution_A(PolyTuple.constants(1), p)
        assert Y.rows[0][0] == TwistedFunc.one(ctx)
        assert Y.rows[0][1].is_zero()
        # exact Wronskian calibration forces the entry -x (not +x)
        assert Y.rows[1][0] == TwistedFunc.from_rat(ctx, RatFunc(-X))

    def test_half_example_structure(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        Y = solution_A(half_tuple, half_problem)
        y = half_tuple[0]
        ybar_inv = TwistedFunc.term(ctx, RatFunc(Poly.one(), y), [F(1, 2)])
        ybar = TwistedFunc.term(ctx, RatFunc(y), [F(-1, 2)])
        tilde = Poly([F(1, 4), F(-1, 2), 1])
        ybar_tilde = TwistedFunc.term(ctx, RatFunc(tilde), [F(-1, 2)])
        assert Y.rows[0][0] == ybar_inv
        assert Y.rows[0][1].is_zero()
        assert Y.rows[1][1] == ybar
        # (2,1) entry is the reduced descendant up to the calibration sign
        assert Y.rows[1][0] == -ybar_tilde

    def test_a2_trivial_matrix(self):
        # hand product of e^(-x F_1) e^((x^2/2)[F_2,F_1]) e^(-x F_2)
        p = problem("A", 2)
        ctx = twist_context(p)
        Y = solution_A(PolyTuple.constants(2), p)
        expected = [[1, None, None], [-1, 1, None], [F(1, 2), -1, 1]]
        powers = [[0, 0, 0], [1, 0, 0], [2, 1, 0]]
        for i in range(3):
            for j in range(3):
                c = expected[i][j]
                want = (
                    TwistedFunc.from_rat(ctx, RatFunc(X ** powers[i][j] * c))
                    if c is not None
                    else TwistedFunc.zero(ctx)
                )
                assert Y.rows[i][j] == want

    def test_a2_structure_and_verification(self, a2_problem, a2_tuple):
        Y = solution_A(a2_tuple, a2_problem)
        rep = rep_standard_sl(3)
        D = miura_from_tuple(a2_tuple, a2_problem)
        assert apply_miura(D, rep, Y).is_zero()

    def test_right_translation_invariance(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        rep = rep_standard_sl(2)
        Y = solution_A(half_tuple, half_problem)
        c = Poly.const
        g = from_rows(ctx, [0], [[c(2), c(1)], [c(0), c(3)]], Poly.one())
        D = miura_from_tuple(half_tuple, half_problem)
        assert apply_miura(D, rep, Y @ g).is_zero()

    def test_only_a_twist_that_is_not_canonical_is_folded(self, half_problem, monkeypatch):
        ctx = twist_context(half_problem)  # T_1 = x (x - 1), d = 2
        calls = []
        fold = solutions._fold
        monkeypatch.setattr(solutions, "_fold", lambda *args: calls.append(args) or fold(*args))
        one = [[RatFunc.one()]]
        Y = TwistedMatrix(ctx, [F(1, 2)], one)
        assert calls == [] and Y.q == (F(1, 2),) and Y.cols == one
        Y = TwistedMatrix(ctx, [F(3, 2)], one)  # T^(3/2) = T^(1/2) T
        assert len(calls) == 1 and Y.q == (F(1, 2),) and Y.cols == [[RatFunc(ctx.T[0])]]
        Y = TwistedMatrix(ctx, [F(-1, 2)], one)  # T^(-1/2) = T^(1/2) / T
        assert Y.q == (F(1, 2),) and Y.cols == [[RatFunc(Poly.one(), ctx.T[0])]]
        with pytest.raises(ValueError, match="not in"):
            TwistedMatrix(ctx, [F(1, 3)], one)
        # T_2 = 1: the twist at node 2 is trivial and folds to 0
        ctx = twist_context(problem("A", 2, [[1, 0]], [0]))
        assert TwistedMatrix(ctx, [F(1, 3), F(1, 3)], one).q == (F(1, 3), 0)

    def test_commuting_factors(self):
        # within Y_i of the type A formula the bracket matrices commute
        for m in (3, 4):
            rep = rep_standard_sl(m)
            r = m - 1
            for i in range(1, r + 1):
                mats = [sympy_matrix(nested_bracket(rep, "F", i, j), m) for j in range(i, r + 1)]
                for a in mats:
                    for b in mats:
                        assert bracket(a, b).is_zero_matrix

    def test_wrong_family_rejected(self, b2_problem, b2_tuple):
        with pytest.raises(UnsupportedTypeError):
            solution_A(b2_tuple, b2_problem)

    @pytest.mark.parametrize(
        "rank, weights, points", [(3, [[1, 0, 0], [0, 0, 1]], [0, -1]), (2, [], []), (3, [], [])]
    )
    def test_matches_the_nested_bracket_formula(self, rank, weights, points):
        p = problem("A", rank, weights, points)
        for cell in explore(PolyTuple.constants(rank), p).cells.values():
            assert solution_A(cell.sample, p) == nested_bracket_solution_A(cell.sample, p)


def nested_bracket_solution_A(y, p):
    """Y = Y_0 Y_1 ... Y_r, Y_0 the weight/T diagonal and Y_i the commuting
    product of exp(g_ij F_{i,j}), g_ij = d_j / y_j for the diagonal sequence
    d_i, ..., d_r along [i, ..., r]: solution_A's formula before it took the
    lowest-weight columns, kept as a reference and formed as n x n products."""
    r, rep, ctx = p.rank, rep_minuscule(p.cartan.family, p.rank), twist_context(p)
    Y = solutions._weight_diagonal(ctx, rep, y)
    for i in range(1, r + 1):
        steps = calibrated_sequence(y, list(range(i, r + 1)), p)
        for j, step in zip(range(i, r + 1), steps):
            Y = Y @ exp_generator(nested_bracket(rep, "F", i, j), RatFunc(step.diagonal, y[j - 1]), ctx, rep.dim)
    return Y


class TestFoldToA:
    def test_palindrome(self, b2_problem, b2_tuple):
        u, pA = fold_to_A(b2_tuple, b2_problem)
        assert u == (b2_tuple[0], b2_tuple[1], b2_tuple[0])
        assert pA.cartan.family == "A" and pA.cartan.rank == 3
        assert pA.weights[0] == (1, 0, 1)
        assert pA.weights[1] == (0, 1, 0)

    def test_constants(self):
        p = problem("B", 3)
        u, pA = fold_to_A(PolyTuple.constants(3), p)
        assert u == PolyTuple.constants(5)

    def test_folded_fertility(self, b2_problem, b2_tuple):
        from operpop.critical import is_fertile

        assert is_fertile(b2_tuple, b2_problem)
        u, pA = fold_to_A(b2_tuple, b2_problem)
        assert is_fertile(u, pA)


def nested_bracket_solution_BC(y, p):
    """Y = Y_0 Y_1 ... Y_r of the module docstring as n x n products: Y_0 the
    weight/T diagonal; Y_i, i < r, the product of exp(d_j / y_j F_{i,j}) over
    the diagonal sequence d_i, ..., d_r along [i, ..., r], of
    exp(d_r / (2 y_r) [[F_r, F_{i,r-1}], F_{i,r-1}]), and of
    exp(a_j / y_{2r-j} F*_{i,2r-j}) over the folded sl_2r sequence a_r, ...
    continued from d_{r-1}; Y_r = exp(d / y_r F_r) along [r]."""
    r, rep, ctx = p.rank, rep_minuscule(p.cartan.family, p.rank), twist_context(p)
    u, pA = fold_to_A(y, p)
    factors = []
    for i in range(1, r):
        native = calibrated_sequence(y, list(range(i, r + 1)), p)
        folded = calibrated_sequence(native[r - i - 1].entries + u[r:], list(range(r, 2 * r - i)), pA)
        factors += [(nested_bracket(rep, "F", i, j), RatFunc(native[j - i].diagonal, y[j - 1])) for j in range(i, r)]
        factors.append((nested_bracket(rep, "double", i, r), RatFunc(native[r - i].diagonal, y[r - 1] * 2)))
        for j, step in zip(range(r, 2 * r - i), folded):
            factors.append((nested_bracket(rep, "Fstar", i, 2 * r - j), RatFunc(step.diagonal, y[2 * r - j - 1])))
    (last,) = calibrated_sequence(y, [r], p)
    factors.append((rep.F[r - 1], RatFunc(last.diagonal, y[r - 1])))
    Y = solutions._weight_diagonal(ctx, rep, y)
    for M, g in factors:
        Y = Y @ exp_generator(M, g, ctx, rep.dim)
    return Y


class TestSolutionBC:
    def test_b2_trivial_matrix(self):
        p = problem("B", 2)
        ctx = twist_context(p)
        Y = solution_BC(PolyTuple.constants(2), p)
        expected = [
            [1, 0, 0, 0],
            [-1, 1, 0, 0],
            [F(1, 2), -1, 1, 0],
            [-F(1, 6), F(1, 2), -1, 1],
        ]
        powers = [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0], [3, 2, 1, 0]]
        for i in range(4):
            for j in range(4):
                c = expected[i][j]
                want = (
                    TwistedFunc.from_rat(ctx, RatFunc(X**powers[i][j] * c))
                    if c
                    else TwistedFunc.zero(ctx)
                )
                assert Y.rows[i][j] == want

    def test_b2_nontrivial(self, b2_problem, b2_tuple):
        Y = solution_BC(b2_tuple, b2_problem)
        rep = rep_standard_sp(2)
        D = miura_from_tuple(b2_tuple, b2_problem)
        assert apply_miura(D, rep, Y).is_zero()

    def test_b3_trivial(self):
        p = problem("B", 3)
        Y = solution_BC(PolyTuple.constants(3), p)
        assert Y.shape == (6, 6)

    def test_wrong_family_rejected(self, a2_problem, a2_tuple):
        with pytest.raises(UnsupportedTypeError):
            solution_BC(a2_tuple, a2_problem)

    @pytest.mark.parametrize("rank, weights, points", [(2, [[1, 0], [0, 1]], [0, -1]), (3, [[1, 0, 0]], [0])])
    def test_matches_the_nested_bracket_formula(self, rank, weights, points):
        p = problem("B", rank, weights, points)
        for cell in explore(PolyTuple.constants(rank), p).cells.values():
            assert solution_BC(cell.sample, p) == nested_bracket_solution_BC(cell.sample, p)


class TestSolutionGeneral:
    def test_empty_path_lowest_vector(self):
        p = problem("A", 1)
        ctx = twist_context(p)
        vec = solution_general(PolyTuple.constants(1), [], p)
        assert vec[0].is_zero()
        assert vec[1] == TwistedFunc.one(ctx)

    def test_path_matches_solution_A_column(self, request):
        # column i-1 of solution_A is the path [i, ..., r]; the last is []
        for name in ("half", "a2", "a3"):
            p, y, _ = residual_case(name, request)
            Y = solution_A(y, p)
            for i in range(1, p.rank + 2):
                assert solution_general(y, list(range(i, p.rank + 1)), p) == Y.column(i - 1)

    def test_sl3_exponent_lattice(self):
        p = problem("A", 2, [[1, 0], [0, 1]], [0, 1])
        y = PolyTuple([Poly([F(-1, 3), 1]), Poly([F(-2, 3), 1])])
        vec = solution_general(y, [1, 2], p)
        for v in vec:
            assert all((e * 3).denominator == 1 for e in v.q)

    def test_invalid_path_errors(self):
        p = problem("A", 1, [[2]], [0])
        with pytest.raises(ReproductionError, match="invalid path"):
            solution_general(PolyTuple([Poly([-1, 1])]), [1], p)

    def test_b2_long_path(self):
        p = problem("B", 2)
        vec = solution_general(PolyTuple.constants(2), [1, 2, 1, 2], p)
        assert len(vec) == 4

    def test_random_parameter_sequences(self, a2_problem, a2_tuple):
        # the identity holds for any associated sequence, not just the
        # canonical one: sample 3 random shift vectors per example
        import random

        rng = random.Random(55)
        cases = [
            (a2_problem, a2_tuple, [1, 2]),
            (problem("B", 2), PolyTuple.constants(2), [2, 1, 2]),
            (problem("A", 3), PolyTuple.constants(3), [1, 2, 3]),
        ]
        for p, y, path in cases:
            for _ in range(3):
                shifts = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in path]
                vec = solution_general(y, path, p, shifts=shifts)
                assert any(not v.is_zero() for v in vec)


class TestApplyMiura:
    def test_identity_with_zero_V(self):
        p = problem("A", 1)
        ctx = twist_context(p)
        rep = rep_standard_sl(2)
        D = miura_from_tuple(PolyTuple.constants(1), p)
        Y = unit_columns(ctx, 2)
        out = apply_miura(D, rep, Y)
        assert out.rows[1][0] == TwistedFunc.one(ctx)  # the F_1 block
        assert out.rows[0][0].is_zero()

    def test_dimension_mismatch(self, half_problem, half_tuple):
        ctx = twist_context(half_problem)
        D = miura_from_tuple(half_tuple, half_problem)
        with pytest.raises(ValueError):
            apply_miura(D, rep_standard_sl(3), unit_columns(ctx, 2))


# ---------------------------------------------------------------------------
# T^q num/den against the twisted field it represents
# ---------------------------------------------------------------------------

A2_CTX = twist_context(problem("A", 2, [[1, 0], [0, 1]], [0, 1]))  # d = 3, T = (x, x - 1)
SMALL = st.integers(-3, 3).map(F) | st.sampled_from([F(1, 2), F(-2, 3)])
POLYS = st.lists(SMALL, max_size=3).map(Poly)
DENS = st.tuples(st.lists(st.integers(-2, 2), max_size=2), st.sampled_from([F(1), F(-2), F(1, 3)]))
TWISTS = st.lists(st.integers(-7, 7).map(lambda k: F(k, 3)), min_size=2, max_size=2)


@st.composite
def twisted_matrices(draw, rows, cols):
    num = [[draw(POLYS) for _ in range(cols)] for _ in range(rows)]
    roots, lead = draw(DENS)
    return draw(TWISTS), num, Poly.from_roots(roots) * lead


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3), m=st.integers(1, 3))
def test_product_matches_twisted_field(data, n, k, m):
    # twists from (1/3)Z^2 reach below 0 and above 1, so the constructor and
    # the product both fold integer parts into num or den
    qa, num_a, den_a = data.draw(twisted_matrices(n, k))
    qb, num_b, den_b = data.draw(twisted_matrices(k, m))
    A = from_rows(A2_CTX, qa, num_a, den_a)
    B = from_rows(A2_CTX, qb, num_b, den_b)
    for i in range(n):
        for j in range(k):
            assert A.rows[i][j] == TwistedFunc.term(A2_CTX, RatFunc(num_a[i][j], den_a), qa)
    a_rows, b_rows, product = A.rows, B.rows, (A @ B).rows
    for i in range(n):
        for j in range(m):
            expected = TwistedFunc.zero(A2_CTX)
            for t in range(k):
                expected = expected + a_rows[i][t] * b_rows[t][j]
            assert product[i][j] == expected


def test_weight_diagonal_needs_one_twist(a2_problem, a2_tuple):
    import dataclasses

    rep = rep_minuscule("A", 2)
    w1 = list(rep.coweights[0])
    w1[0] += F(1, 3)  # rows 0 and 1 of w_1 no longer differ by an integer
    bad = dataclasses.replace(rep, coweights=(tuple(w1),) + rep.coweights[1:])
    with pytest.raises(ValueError, match="twist"):
        solutions._weight_diagonal(twist_context(a2_problem), bad, a2_tuple)


def twisted_residual(y, p, rows):
    """Y' + (sum F_i + sum c_j H_j) Y from rendered entries, in the twisted field."""
    rep, D = rep_minuscule(p.cartan.family, p.rank), miura_from_tuple(y, p)
    n = rep.dim
    M = [[RatFunc.zero()] * n for _ in range(n)]
    for f in rep.F:
        for a, b, s in f:
            M[a][b] = M[a][b] + s
    for c, h in zip(D.h_coords, rep.H):
        for a, v in enumerate(h):
            M[a][a] = M[a][a] + c * v
    out = []
    for a in range(n):
        out_row = []
        for j in range(len(rows[0])):
            acc = rows[a][j].derivative()
            for b in range(n):
                acc = acc + M[a][b] * rows[b][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _builders(p, y, path):
    matrix = {"A": solution_A, "B": solution_BC}.get(p.cartan.family)
    if matrix:
        yield matrix(y, p).rows
    for indices in ([], path[:1], path):
        yield [[v] for v in solution_general(y, indices, p)]


@pytest.mark.parametrize("name", sorted(RESIDUAL_CASES))
def test_solutions_solve_D_in_the_twisted_field(name, request):
    p, y, path = residual_case(name, request)
    for rows in _builders(p, y, path):
        for row in twisted_residual(y, p, rows):
            assert all(v.is_zero() for v in row)


@pytest.mark.parametrize("name", ["half", "a2", "b2"])
def test_an_entry_plus_one_is_caught(name, request, monkeypatch):
    p, y, path = residual_case(name, request)
    ctx = twist_context(p)
    for rows in _builders(p, y, path):
        rows = [list(row) for row in rows]
        entry = rows[-1][-1]
        rows[-1][-1] = entry + TwistedFunc.term(ctx, RatFunc.one(), entry.q)
        assert any(not v.is_zero() for row in twisted_residual(y, p, rows) for v in row)

    # the same change inside a builder: the last weight-diagonal entry + 1
    weight_column = solutions._weight_column

    def perturbed(rep, k, entries, up, down):
        col = weight_column(rep, k, entries, up, down)
        if k == rep.dim - 1:
            col[k] = col[k] + 1
        return col

    monkeypatch.setattr(solutions, "_weight_column", perturbed)
    matrix = solution_A if p.cartan.family == "A" else solution_BC
    with pytest.raises(VerificationError, match="D Y != 0"):
        matrix(y, p)
    with pytest.raises(VerificationError, match="D Y != 0"):
        solution_general(y, path[:1], p)


@cache
def builder_outputs():
    """(D, rep, Y) of the matrix builders on weighted A3 and B2 cell samples
    and of the general builder along [1, 2] on A3."""
    out = []
    for family, rank, weights in [("A", 3, [[1, 0, 0], [0, 0, 1]]), ("B", 2, [[1, 0], [0, 1]])]:
        p = problem(family, rank, weights, [0, -1])
        rep = rep_minuscule(family, rank)
        for cell in list(explore(PolyTuple.constants(rank), p).cells.values())[:6]:
            D = miura_from_tuple(cell.sample, p)
            out.append((D, rep, (solution_A if family == "A" else solution_BC)(cell.sample, p)))
            if family == "A":
                out.append((D, rep, solutions._lowest_weight_columns(cell.sample, [[1, 2]], p, "general")))
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data(), c=st.fractions(max_denominator=5), m=st.integers(0, 4))
def test_verify_raises_exactly_when_the_residual_is_nonzero(data, c, m):
    # Y_ij + c x^m adds c x^m T^q at entry (i, j); c = 0 changes nothing
    D, rep, Y = data.draw(st.sampled_from(builder_outputs()))
    j = data.draw(st.integers(0, Y.shape[1] - 1))
    i = data.draw(st.integers(0, Y.shape[0] - 1))
    cols = list(Y.cols)
    cols[j] = list(cols[j])
    cols[j][i] = cols[j][i] + X**m * c
    Y = TwistedMatrix(Y.ctx, Y.q, cols)
    try:
        solutions._verify(D, rep, Y, "perturbed")
        raised = False
    except VerificationError:
        raised = True
    assert raised == (not apply_miura(D, rep, Y).is_zero())
    assert raised == (c != 0)


@pytest.mark.parametrize("family, rank, weights", [("A", 3, [[1, 0, 0], [0, 0, 1]]), ("B", 2, [[1, 0], [0, 1]])])
def test_matrix_builders_verify_on_every_cell_sample(family, rank, weights):
    # cells such as (2, 0, 0) have a constant entry next to a nonconstant
    # linked one, which the calibrated sequences pass to wronskian_rhs as is
    p = problem(family, rank, weights, [0, -1])
    builder = solution_A if family == "A" else solution_BC
    for cell in explore(PolyTuple.constants(rank), p).cells.values():
        builder(cell.sample, p)  # raises VerificationError unless D Y = 0


@pytest.mark.parametrize(
    "family, rank, weights, points",
    [("A", 3, [], []), ("C", 3, [], []), ("B", 3, [[1, 0, 0]], [0])],
)
def test_the_population_gives_all_solutions(family, rank, weights, points):
    # the general builder along every Weyl word from the constant seed spans
    # the dim V solutions of D Y = 0: stack each solution's coefficient
    # vector, cleared to one denominator, and take the exact rank over Q
    p = problem(family, rank, weights, points)
    y = PolyTuple.constants(rank)
    def lcm(a, b):
        return a * (b // poly_gcd(a, b))

    cleared = []
    for word in weyl_elements(p.cartan):
        vec = solution_general(y, word, p)
        assert len({v.q for v in vec if not v.is_zero()}) == 1
        den = reduce(lcm, [v.coeff.den for v in vec])
        cleared.append([v.coeff.num * (den // v.coeff.den) for v in vec])
    width = 1 + max(q.degree() for polys in cleared for q in polys)
    stacked = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for q in polys for c in q.coeffs + (F(0),) * (width - len(q.coeffs))]
         for polys in cleared]
    )
    assert stacked.rank() == rep_minuscule(family, rank).dim


# ---------------------------------------------------------------------------
# exp(g M) = 1 + g M: the builders' factors square to zero
# ---------------------------------------------------------------------------


def builder_brackets(rep, family):
    """The nested brackets that solution_A (A) or solution_BC (B) exponentiates."""
    r = rep.rank
    if family == "A":
        return [nested_bracket(rep, "F", i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    out = [rep.F[r - 1]]
    for i in range(1, r):
        out += [nested_bracket(rep, "F", i, j) for j in range(i, r)]
        out.append(nested_bracket(rep, "double", i, r))
        out += [nested_bracket(rep, "Fstar", i, k) for k in range(i + 1, r + 1)]
    return out


SQUARE_ZERO_TYPES = (
    [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)] + [("C", 3), ("D", 4), ("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("family, rank", SQUARE_ZERO_TYPES)
def test_root_vectors_of_minuscule_reps_square_to_zero(family, rank):
    # every weight pairs with every coroot in {-1, 0, 1}, so no root string
    # through a weight has length > 2
    rep = rep_minuscule(family, rank)
    factors = [*rep.F, *rep.E] + (builder_brackets(rep, family) if family in "AB" else [])
    for M in factors:
        S = sympy_matrix(M, rep.dim)
        assert not S.is_zero_matrix and (S * S).is_zero_matrix
        assert solutions._square_zero(M)


def _entries(rows):
    """The (row, col, value) entries of a matrix given by its rows."""
    return tuple((a, b, F(v)) for a, row in enumerate(rows) for b, v in enumerate(row) if v)


# square-zero matrices: a bracket of sl_3, and one whose row 0 is also a
# column it writes to (M = u v^T with v.u = 0), so updates must read old columns
SQUARE_ZERO = {
    "bracket": nested_bracket(rep_standard_sl(3), "F", 1, 2),
    "overlapping": _entries([[1, 1, 0], [-1, -1, 0], [2, 2, 0]]),
    "two_sources": _entries([[0, 0, 0], [3, 0, 0], [F(1, 2), 0, 0]]),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SQUARE_ZERO)))
def test_column_updates_match_the_exponential(data, name):
    M = SQUARE_ZERO[name]
    q, num, den = data.draw(twisted_matrices(3, 3))
    Y = from_rows(A2_CTX, q, num, den)
    g = RatFunc(data.draw(POLYS), Poly.from_roots(data.draw(DENS)[0]))
    exp_gM = exp_generator(M, g, A2_CTX, 3)
    for j in range(3):
        column = TwistedMatrix(A2_CTX, Y.q, [solutions._exp_times(M, g, Y.cols[j])])
        assert column == exp_gM @ TwistedMatrix(A2_CTX, Y.q, [Y.cols[j]])


def test_a_factor_with_nonzero_square_raises(half_problem):
    # nilpotent (M^3 = 0) but M^2 != 0: 1 + g M is not exp(g M)
    ctx = twist_context(half_problem)
    M = _entries([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    Y = unit_columns(ctx, 3)
    with pytest.raises(ValueError, match=r"M\^2 != 0"):
        solutions._exp_times(M, RatFunc(X), Y.cols[0])


def test_builders_make_no_matrix_product(monkeypatch, a3_problem, a3_tuple, b2_problem, b2_tuple):
    def forbidden(*args):
        raise AssertionError("an n x n product")

    monkeypatch.setattr(solutions, "exp_generator", forbidden)
    monkeypatch.setattr(TwistedMatrix, "__matmul__", forbidden)
    assert solution_A(a3_tuple, a3_problem).shape == (4, 4)
    assert solution_BC(b2_tuple, b2_problem).shape == (4, 4)
    assert len(solution_general(b2_tuple, [2, 1], b2_problem)) == 4
    assert len(solution_general(PolyTuple.constants(6), [1, 3, 4, 5, 6, 2], problem("E", 6))) == 27


def test_weight_diagonal_columns_keep_their_own_denominators(a2_problem, a2_tuple):
    rep = rep_minuscule("A", 2)
    W = solutions._weight_diagonal(twist_context(a2_problem), rep, a2_tuple)
    dens = [col[k].den for k, col in enumerate(W.cols)]
    assert len(set(dens)) > 1
