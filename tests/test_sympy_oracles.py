"""Engine-independent oracles: sympy checks the exact polynomial layer and
the representations.

The expected values are computed in sympy alone (its own ring operations,
gcd, derivative, division, cancellation, rational integration and matrix
products); the engine's answers are only converted to sympy for the
comparison.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.integrals.rationaltools import ratint

from conftest import sympy_diag, sympy_matrix
from operpop.exactalg import _P, Poly, RatFunc, poly_gcd, squarefree, wronskian, wronskian_partner
from operpop.liedata import cartan_data, langlands_dual
from operpop.solutions import rep_minuscule

x = sympy.Symbol("x")

SCALARS = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


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
    """Pairs with or without a common factor; some are shifted by _P * x^k,
    so that their images mod _P coincide or lose the leading term."""
    f, g = draw(polys(4)), draw(polys(4))
    if draw(st.booleans()):
        h = draw(polys(2, nonzero=True))
        f, g = f * h, g * h
    if draw(st.booleans()):
        g = g + Poly([0] * draw(st.integers(0, 6)) + [_P])
    return f, g


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
# _P divides the stored denominator: the certificate reads the numerators
@example((Poly([F(1, _P), 0, F(1, _P)]), Poly([0, 1])))
@example((Poly([F(-1, _P), 0, F(1, _P)]), Poly([-1, 1])))
def test_poly_gcd_against_sympy(pair):
    f, g = pair
    expected = sympy.Poly(to_sympy(f), x, domain="QQ").gcd(sympy.Poly(to_sympy(g), x, domain="QQ"))
    if not expected.is_zero:
        expected = expected.monic()
    assert sympy.expand(to_sympy(poly_gcd(f, g)) - expected.as_expr()) == 0


# Ring-layer draws: small scalars, scalars of up to about 200 bits, and
# scalars whose denominator is divisible by _P.
BIG_SCALARS = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
P_SCALARS = st.builds(lambda n, d: F(n, d * _P), st.integers(-9, 9), st.integers(1, 9))
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
# lc numerator _P: no certificate, Euclid over Q decides
@example(Poly([1, 0, _P]), Poly.one(), False)
@example(Poly([1, _P]), Poly([F(1, 3), _P]), True)
# x^2 + _P is x^2 mod _P, so the images are not coprime: Euclid over Q decides
@example(Poly([_P, 0, 1]), Poly.one(), False)
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
