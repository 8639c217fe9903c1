"""Engine-independent oracles: sympy checks the exact polynomial layer,
the representations, the criticality of population samples and D Y = 0 on
the solutions that `solve` and `verify` report.

The expected values are computed in sympy alone (its own ring operations,
gcd, derivative, division, cancellation, rational integration and matrix
products); the engine's answers are only converted to sympy for the
comparison.
"""

import json
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.integrals.rationaltools import ratint

from conftest import sympy_diag, sympy_matrix
from operpop.cli import main
from operpop.exactalg import Poly, RatFunc, _gcd_parts, poly_gcd, squarefree, wronskian, wronskian_partner
from operpop.liedata import cartan_data, langlands_dual
from operpop.solutions import rep_minuscule
from test_cli import SOLUTION_CORPUS, _solution_argv

x = sympy.Symbol("x")

SCALARS = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
P = 2**61 - 1  # a large prime, as a coefficient and as a denominator


def polys(max_degree, nonzero=False):
    out = st.lists(SCALARS, max_size=max_degree + 1).map(Poly)
    return out.filter(lambda p: not p.is_zero()) if nonzero else out


def to_sympy(p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


@st.composite
def bases(draw):
    """Nonzero y, constant, non-monic or with a repeated factor."""
    y = draw(polys(3, nonzero=True))
    if draw(st.booleans()):
        y = y * draw(polys(1, nonzero=True)) ** 2
    return y


@settings(max_examples=100, deadline=None)
@given(bases(), polys(4), polys(6), st.booleans())
def test_wronskian_partner_against_ratint(y, u0, other, fertile):
    N = wronskian(y, u0) if fertile else other
    sy, sN = to_sympy(y), to_sympy(N)
    # u/y = -(antiderivative of N/y^2) + c, so a polynomial u exists iff
    # the antiderivative is rational and y times it is a polynomial;
    # real=False keeps the log part as RootSum/log terms (log_to_real is
    # slow and decides nothing here)
    anti = ratint(sN / sy**2, x, real=False)
    exists = not anti.has(sympy.log, sympy.atan, sympy.RootSum) and sympy.fraction(sympy.cancel(sy * anti))[1].is_number
    u = wronskian_partner(y, N)
    assert (u is not None) == exists
    if fertile:
        assert u is not None
    if u is not None:
        su = to_sympy(u)
        assert sympy.expand(sympy.diff(sy, x) * su - sy * sympy.diff(su, x) - sN) == 0
        assert sympy.div(su, sy, x)[0].subs(x, 0) == 0


@st.composite
def poly_pairs(draw):
    """Pairs with or without a common factor; some are shifted by P * x^k,
    a coefficient far above the others (it sets the root bound of one
    operand only), which may also become the leading one."""
    f, g = draw(polys(4)), draw(polys(4))
    if draw(st.booleans()):
        h = draw(polys(2, nonzero=True))
        f, g = f * h, g * h
    if draw(st.booleans()):
        g = g + Poly([0] * draw(st.integers(0, 6)) + [P])
    return f, g


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
# P divides the stored denominator: the gcd reads the numerators
@example((Poly([F(1, P), 0, F(1, P)]), Poly([0, 1])))
@example((Poly([F(-1, P), 0, F(1, P)]), Poly([-1, 1])))
def test_poly_gcd_against_sympy(pair):
    f, g = pair
    expected = sympy.Poly(to_sympy(f), x, domain="QQ").gcd(sympy.Poly(to_sympy(g), x, domain="QQ"))
    if not expected.is_zero:
        expected = expected.monic()
    assert sympy.expand(to_sympy(poly_gcd(f, g)) - expected.as_expr()) == 0


@settings(max_examples=100, deadline=None)
@given(polys(3, nonzero=True), polys(3, nonzero=True), polys(2, nonzero=True), st.integers(2, 2**120))
def test_poly_gcd_with_a_large_common_content_against_sympy(f, g, h, content):
    # the content raises both root bounds, and so the evaluation point
    f, g = f * h * content, g * h * content
    expected = sympy.Poly(to_sympy(f), x, domain="QQ").gcd(sympy.Poly(to_sympy(g), x, domain="QQ"))
    assert sympy.expand(to_sympy(poly_gcd(f, g)) - expected.monic().as_expr()) == 0


# Ring-layer draws: small scalars, scalars of up to about 200 bits, and
# scalars whose denominator is divisible by P.
BIG_SCALARS = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
P_SCALARS = st.builds(lambda n, d: F(n, d * P), st.integers(-9, 9), st.integers(1, 9))
RING_SCALARS = SCALARS | BIG_SCALARS | P_SCALARS


def ring_polys(max_degree, nonzero=False):
    out = st.lists(RING_SCALARS, max_size=max_degree + 1).map(Poly)
    return out.filter(lambda p: not p.is_zero()) if nonzero else out


def qq(p: Poly) -> sympy.Poly:
    return sympy.Poly(to_sympy(p), x, domain="QQ")


def rational(c: F):
    return sympy.Rational(c.numerator, c.denominator)


@settings(max_examples=200, deadline=None)
@given(ring_polys(3, nonzero=True), ring_polys(2, nonzero=True), st.booleans())
# lc numerator P
@example(Poly([1, 0, P]), Poly.one(), False)
@example(Poly([1, P]), Poly([F(1, 3), P]), True)
# a constant term far above the leading one
@example(Poly([P, 0, 1]), Poly.one(), False)
def test_squarefree_against_sympy(f, h, repeat):
    if repeat:
        f = f * h**2
    assert squarefree(f) == qq(f).is_sqf


@settings(max_examples=200, deadline=None)
@given(ring_polys(5), ring_polys(5), RING_SCALARS)
def test_ring_operations_against_sympy(f, g, c):
    assert qq(f + g) == qq(f) + qq(g)
    assert qq(f - g) == qq(f) - qq(g)
    assert qq(-f) == -qq(f)
    assert qq(f * g) == qq(f) * qq(g)
    assert qq(f * c) == qq(c * f) == qq(f) * rational(c)


@settings(max_examples=200, deadline=None)
@given(ring_polys(7), ring_polys(3, nonzero=True), st.booleans())
def test_divmod_against_sympy(f, g, monic):
    if monic:
        g = g.monic()
    q, r = divmod(f, g)
    sq, sr = qq(f).div(qq(g))
    assert (qq(q), qq(r)) == (sq, sr)
    assert (f // g, f % g) == (q, r)


@settings(max_examples=200, deadline=None)
@given(ring_polys(6), RING_SCALARS)
def test_calculus_evaluation_and_monic_against_sympy(f, v):
    assert qq(f.derivative()) == qq(f).diff(x)
    assert qq(f.antiderivative()) == qq(f).integrate()
    assert rational(f(v)) == qq(f).eval(rational(v))
    if not f.is_zero():
        assert qq(f.monic()) == qq(f).monic()
        assert f.monic().is_monic()


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
@example((Poly([F(1, P), 0, F(1, P)]), Poly([0, 1])))
@example((Poly([0, 0, 1]), Poly.zero()))
@example((Poly.zero(), Poly.zero()))
def test_gcd_parts_against_sympy(pair):
    # the monic gcd and its two cofactors: h (f/h) = f and h (g/h) = g
    f, g = pair
    h, fh, gh = _gcd_parts(f, g)
    expected = qq(f).gcd(qq(g))
    if expected.is_zero:
        assert h.is_zero()
    else:
        assert h.is_monic() and qq(h) == expected.monic()
    assert h * fh == f and h * gh == g
    assert qq(fh) * qq(h) == qq(f) and qq(gh) * qq(h) == qq(g)


@settings(max_examples=150, deadline=None)
@given(ring_polys(4), ring_polys(4, nonzero=True), ring_polys(2, nonzero=True))
def test_ratfunc_normalisation_against_cancel(num, den, common):
    num, den = num * common, den * common
    r = RatFunc(num, den)
    assert r.den.is_monic()
    assert sympy.gcd(qq(r.num), qq(r.den)).degree() <= 0
    # sympy's reduced form, scaled to a monic denominator
    P, Q = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    lead = sympy.Poly(Q, x, domain="QQ").LC()
    assert qq(r.num) == sympy.Poly(P / lead, x, domain="QQ")
    assert qq(r.den) == sympy.Poly(Q / lead, x, domain="QQ")


REP_TYPES = (
    [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)]
    + [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("family, rank", REP_TYPES)
def test_minuscule_rep_satisfies_the_dual_chevalley_relations(family, rank):
    rep = rep_minuscule(family, rank)
    C = langlands_dual(cartan_data(family, rank)).a
    n = rep.dim
    F_mats = [sympy_matrix(f, n) for f in rep.F]
    E_mats = [sympy_matrix(e, n) for e in rep.E]
    H = [sympy_diag(h) for h in rep.H]
    for i in range(rank):
        assert E_mats[i] == F_mats[i].T
        assert (F_mats[i] * F_mats[i]).is_zero_matrix
        for j in range(rank):
            delta_H = H[i] if i == j else sympy.zeros(n)
            assert E_mats[i] * F_mats[j] - F_mats[j] * E_mats[i] == delta_H
            assert H[i] * F_mats[j] - F_mats[j] * H[i] == -C[i][j] * F_mats[j]


# Cartan matrices a_ij = <alpha_j, alpha_i^vee> in the Bourbaki labelling
# (the short root of B_r and the long root of C_r last)
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -3], [-1, 2]],
}

# weights at 0 and 1, and |W|
BETHE_CORPUS = {
    "B2": ([[1, 0], [0, 1]], 8),
    "G2": ([[1, 0], [0, 1]], 12),
    "A3": ([[1, 0, 0], [0, 0, 1]], 24),
    "C3": ([[1, 0, 0], [0, 0, 1]], 48),
    "D4": ([], 192),
}


@pytest.mark.parametrize("name", sorted(BETHE_CORPUS))
def test_population_samples_satisfy_the_bethe_divisibility(name, tmp_path, capsys):
    # a root t of y_i is critical iff 2 sum_{u != t} 1/(t - u) = y_i''(t)/y_i'(t)
    # equals -W_i'(t)/W_i(t), W_i = T_i prod_{j != i} y_j^(-a_ij): y_i must
    # divide y_i'' W_i - y_i' W_i'
    family, a = name[0], CARTAN[name]
    weights, order = BETHE_CORPUS[name]
    rank = len(a)
    points = ["0", "1"][: len(weights)]
    doc = {"lie_type": family, "rank": rank, "weights": weights, "points": points, "tuple": [["1"]] * rank}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["populate", str(path)]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert len(cells) == order
    for cell in cells:
        y = [sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain="QQ") for coeffs in cell["sample"]]
        for i in range(rank):
            W = sympy.Poly(1, x, domain="QQ")
            for w, z in zip(weights, points):
                W = W * sympy.Poly(x - sympy.Rational(z), x, domain="QQ") ** w[i]
            for j in range(rank):
                if j != i and a[i][j]:
                    W = W * y[j] ** -a[i][j]
            residue = y[i].diff(x).diff(x) * W - y[i].diff(x) * W.diff(x)
            assert residue.rem(y[i]).is_zero, (cell["degrees"], i + 1)


# ---------------------------------------------------------------------------
# D Y = 0 on `solve` and `verify` reports, read back into QQ(x)
# ---------------------------------------------------------------------------

QQX = sympy.QQ.frac_field(x)
DX = QQX.gens[0]


def _in_field(s: str):
    return QQX.from_sympy(sympy.parse_expr(s.replace("^", "**"), {"x": x}))


def _log_derivative(f):
    return f.diff(DX) / f


def assert_report_solves_DY_0(report):
    """Y = T^q Y_f from the report's strings; Y_f' + lambda Y_f + (sum F_i +
    sum c_j H_j) Y_f = 0 entry by entry, with lambda = sum_l q_l T_l'/T_l and
    c_j = log'(y_j) - sum_l b_jl log'(T_l), b the inverse Cartan matrix.  F_i
    and H_j come from `rep_minuscule`, which the Chevalley oracle above checks."""
    doc, solution = report["problem"], report["solution"]
    family, rank = doc["lie_type"], doc["rank"]
    b = sympy.Matrix(CARTAN[f"{family}{rank}"]).inv()
    T = [QQX.one] * rank
    for w, z in zip(doc["weights"], doc["points"]):
        for l in range(rank):
            T[l] *= (DX - QQX.from_sympy(sympy.Rational(z))) ** int(w[l])
    y = [QQX.from_sympy(sum(sympy.Rational(c) * x**k for k, c in enumerate(coeffs))) for coeffs in doc["tuple"]]
    c = [
        _log_derivative(y[j]) - sum((QQX.from_sympy(b[j, l]) * _log_derivative(T[l]) for l in range(rank)), QQX.zero)
        for j in range(rank)
    ]
    (key,) = {k for row in solution for entry in row for k in entry}  # one twist for the whole matrix
    q = [sympy.Rational(e) for e in key.split(",")]
    assert len(q) == rank
    lam = sum((QQX.from_sympy(q_l) * _log_derivative(T_l) for q_l, T_l in zip(q, T)), QQX.zero)
    Y = [[_in_field(entry[key]) if entry else QQX.zero for entry in row] for row in solution]
    rep = rep_minuscule(family, rank)
    assert len(Y) == rep.dim and all(any(col) for col in zip(*Y))
    for j in range(len(Y[0])):
        residual = [Y[a][j].diff(DX) + lam * Y[a][j] for a in range(rep.dim)]
        for F_i in rep.F:
            for a, k, s in F_i:
                residual[a] += QQX.from_sympy(sympy.Rational(s)) * Y[k][j]
        for c_l, H_l in zip(c, rep.H):
            for a, h in enumerate(H_l):
                residual[a] += h * c_l * Y[a][j]
        assert not any(residual), (j, residual)


@pytest.mark.parametrize("name", sorted(SOLUTION_CORPUS))
@pytest.mark.parametrize("command", ["solve", "general", "verify"])
def test_corpus_solutions_satisfy_DY_0(name, command, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SOLUTION_CORPUS[name][0]))
    assert main(_solution_argv(name, command, str(path))) == 0
    assert_report_solves_DY_0(json.loads(capsys.readouterr().out))


# weights, points, the stride over the cells and the --path of `verify`:
# the sl and sp builders on A3 and B2, the general builder on C3 and D4
SOLVE_CELLS = {
    "A3": ([[1, 0, 0], [0, 0, 1]], ["0", "2"], 4, "1,2,3"),
    "B2": ([[1, 0], [0, 1]], ["1", "-2"], 2, "2,1"),
    "C3": ([[1, 0, 0], [0, 0, 1]], ["-1", "2"], 6, "1,3,2"),
    "D4": ([], [], 16, "2,1,3,4"),
}


@pytest.mark.parametrize("name", sorted(SOLVE_CELLS))
def test_cell_solutions_satisfy_DY_0(name, tmp_path, capsys):
    weights, points, stride, verify_path = SOLVE_CELLS[name]
    family, rank = name[0], int(name[1:])
    doc = {"lie_type": family, "rank": rank, "weights": weights, "points": points, "tuple": [["1"]] * rank}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["populate", str(path)]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    for cell in cells[::stride]:
        path.write_text(json.dumps(dict(doc, tuple=cell["sample"])))
        for argv in (["solve", str(path)], ["verify", str(path), "--path", verify_path]):
            assert main(argv) == 0, (cell["degrees"], argv)
            assert_report_solves_DY_0(json.loads(capsys.readouterr().out))
