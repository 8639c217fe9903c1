import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operpop.exactalg import (
    _P,
    Poly,
    RatFunc,
    integrate_shape,
    log_derivative,
    poly_ext_gcd,
    poly_gcd,
    rational_antiderivative,
    squarefree,
    wronskian,
    wronskian_partner,
)

F = Fraction
X = Poly.x()


def rand_poly(rng, max_deg=4, zero_ok=True):
    deg = rng.randint(0 if zero_ok else 1, max_deg)
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if p.is_zero() and not zero_ok:
        return Poly([1, 1])
    return p


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()

    def test_divmod_roundtrip(self):
        rng = random.Random(1)
        for _ in range(60):
            a = rand_poly(rng, 6)
            b = rand_poly(rng, 3, zero_ok=False)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()

    def test_gcd_divides_both(self):
        a = Poly.from_roots([1, 2, 3])
        b = Poly.from_roots([2, 3, 4])
        g = poly_gcd(a, b)
        assert g == Poly.from_roots([2, 3])
        assert (a % g).is_zero() and (b % g).is_zero()

    def test_ext_gcd_identity(self):
        rng = random.Random(2)
        for _ in range(40):
            a = rand_poly(rng, 4, zero_ok=False)
            b = rand_poly(rng, 4, zero_ok=False)
            d, s, t = poly_ext_gcd(a, b)
            assert s * a + t * b == d

    def test_eval_and_antiderivative(self):
        p = Poly([F(1, 4), F(-1, 2), 1])
        assert p(F(1, 2)) == F(1, 4) - F(1, 4) + F(1, 4)
        assert p.antiderivative().derivative() == p
        assert p.antiderivative()(0) == 0


class TestRepresentation:
    """One stored form per polynomial, whatever it was built from."""

    SPELLINGS = [
        [F(1, 2), -3, 0, F(5, 7)],
        [F(2, 4), F(-6, 2), F(0, 9), F(10, 14)],
        ["1/2", "-3", "0", "5/7"],
        ["2/4", -3, F(0), "10/14"],
        [F(1, 2), "-6/2", 0, F(5, 7), 0, "0/3"],
    ]

    def test_spellings_agree(self):
        polys = [Poly(cs) for cs in self.SPELLINGS]
        polys.append(Poly([F(1, 2), -3]) + X**3 * F(5, 7))
        first = polys[0]
        for p in polys[1:]:
            assert p == first and hash(p) == hash(first)
            assert str(p) == str(first) == "5/7*x^3 - 3*x + 1/2"
            assert p.coeffs == first.coeffs

    def test_coeffs_are_fractions(self):
        for p in (Poly([1, 2, 3]), Poly(["1/3", 2]), Poly.x() * F(2, 3), Poly.zero()):
            assert type(p.coeffs) is tuple
            assert all(type(c) is F for c in p.coeffs)
        p = Poly([F(-1, 6), 0, F(3, 4)])
        assert p.coeffs == (F(-1, 6), F(0), F(3, 4))
        assert type(p.leading()) is F and type(p.coeff(1)) is F and type(p(2)) is F

    def test_zero(self):
        for z in (Poly([0, 0]), Poly(["0", F(0, 5)]), Poly([F(1, 3)]) - Poly([F(1, 3)]), Poly.zero()):
            assert z.is_zero() and not z and z.degree() == -1
            assert z == Poly.zero() and hash(z) == hash(Poly.zero())
            assert z.coeffs == () and str(z) == "0"

    def test_poly_tuple_key_survives_cli_round_trip(self):
        from operpop.cli import echo_problem, parse_problem

        doc = {
            "lie_type": "A", "rank": 2, "weights": [[1, 0], [0, 1]], "points": ["0", "1"],
            "tuple": [["-2/6", "1"], [-4, "2"]],
        }
        p, y, extras = parse_problem(doc)
        table = {y: "seed"}
        _, y2, _ = parse_problem(echo_problem(p, y, extras))
        assert y2 == y and hash(y2) == hash(y)
        assert table[y2] == "seed"


NORMAL_SCALARS = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)) | st.integers(-3, 3)
NORMAL_POLYS = st.lists(NORMAL_SCALARS, max_size=5).map(Poly)


def assert_normal(p):
    """Positive denominator, nonzero top numerator, gcd(den, *nums) = 1,
    den = 1 for zero."""
    nums, den = p._num, p._den
    assert all(type(c) is int for c in nums) and type(den) is int and den > 0
    if nums:
        assert nums[-1] != 0 and math.gcd(den, *nums) == 1
    else:
        assert den == 1


@settings(max_examples=200, deadline=None)
@given(NORMAL_POLYS, NORMAL_POLYS.filter(bool), NORMAL_SCALARS)
def test_every_operation_returns_the_normal_form(f, g, c):
    q, r = divmod(f, g)
    results = [f + g, f - g, -f, f * g, f * c, c * f, q, r, f.derivative(), f.antiderivative(), g.monic()]
    results += [poly_gcd(f, g), wronskian(f, g)]
    if c:
        # scalars that share factors with the content and the denominator
        back = f * c * (1 / F(c))
        assert back == f
        results += [back, f * F(c).denominator * F(c)]
    for p in results:
        assert_normal(p)
        assert Poly(p.coeffs) == p


FRACTIONS = st.fractions() | st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))


@settings(max_examples=300, deadline=None)
@given(st.lists(FRACTIONS | st.integers(-(2**80), 2**80) | st.just(0), max_size=8))
def test_coefficient_strings_match_fraction_str(coeffs):
    poly = Poly(coeffs)
    assert poly.coeff_strs() == [str(c) for c in poly.coeffs]


def fraction_str(self) -> str:
    """Reference: `Poly.__str__` as written on `Fraction` coefficients."""
    if self.is_zero():
        return "0"
    cs = self.coeffs
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            if c == 1:
                term = xs
            elif c == -1:
                term = f"-{xs}"
            else:
                term = f"{c}*{xs}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 0]) | st.integers(-(2**80), 2**80) | FRACTIONS, max_size=8))
def test_str_matches_the_fraction_rendering(coeffs):
    poly = Poly(coeffs)
    assert str(poly) == fraction_str(poly)


def euclid_steps(monkeypatch):
    """Count the divisions over Q made from here on."""
    calls = []
    divmod_q = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(1) or divmod_q(a, b))
    return calls


class TestGcdCertificate:
    def test_coprime_needs_no_euclid_over_q(self, monkeypatch):
        f = Poly.from_roots([1, 2, 3]) * F(2, 7)
        g = Poly.from_roots([4, F(5, 3)])
        calls = euclid_steps(monkeypatch)
        assert poly_gcd(f, g) == Poly.one()
        assert squarefree(f)
        assert calls == []

    def test_unlucky_prime_falls_back(self, monkeypatch):
        # x - 3 and x - 3 - _P have the same image mod _P
        calls = euclid_steps(monkeypatch)
        assert poly_gcd(Poly([-3, 1]), Poly([-3 - _P, 1])) == Poly.one()
        assert calls

    def test_leading_coefficient_divisible_by_p(self):
        # h mod _P is the constant 1, so the images of f and g are coprime
        h = Poly([1, _P])
        f, g = h * X, h * (X + Poly.one())
        assert poly_gcd(f, g) == Poly([F(1, _P), 1])

    def test_denominator_divisible_by_p(self):
        h = Poly([F(1, _P), 1])
        assert poly_gcd(h * X, h * (X + Poly.one())) == h

    def test_zero_and_constant_operands(self):
        g = Poly([2, 0, 6])
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
        assert poly_gcd(Poly.zero(), g) == g.monic()
        assert poly_gcd(g, Poly.zero()) == g.monic()
        assert poly_gcd(Poly.const(F(3, 5)), g) == Poly.one()
        assert poly_gcd(g, Poly.const(_P)) == Poly.one()


class TestWronskian:
    def test_derivative_of_constant(self):
        assert wronskian(X, Poly.one()) == Poly([1])

    def test_antisymmetry_diagonal(self):
        f = Poly([1, -2, 3])
        assert wronskian(f, f).is_zero()

    def test_half_example(self):
        y = Poly([F(-1, 2), 1])
        ytilde = Poly([F(1, 4), F(-1, 2), 1])
        assert wronskian(y, ytilde) == Poly([0, 1, -1])  # -(x^2 - x)

    def test_bilinearity_and_product_rule(self):
        rng = random.Random(3)
        for _ in range(50):
            f, g = rand_poly(rng), rand_poly(rng)
            h = rand_poly(rng)
            c = F(rng.randint(-3, 3), rng.randint(1, 4))
            assert wronskian(f + g * c, h) == wronskian(f, h) + c * wronskian(g, h)
            a = rand_poly(rng, 2, zero_ok=False)
            assert wronskian(a * f, a * g) == a * a * wronskian(f, g)


class TestSquarefree:
    def test_examples(self):
        assert squarefree(Poly([0, -1, 1]))  # x^2 - x
        assert not squarefree(Poly([0, 0, 1]))  # x^2
        assert not squarefree(Poly.from_roots([1, 1, -2]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree(Poly.zero())


class TestIntegrateShape:
    def test_half_example(self):
        N = Poly([0, -1, 1])  # x^2 - x
        y = Poly([F(-1, 2), 1])
        parts = integrate_shape(N, y)
        assert parts.poly_part == X
        assert parts.rat_part_num == Poly([F(-1, 4)])
        assert parts.obstruction.is_zero()

    def test_inverse_square(self):
        parts = integrate_shape(Poly.one(), X)
        assert parts.poly_part.is_zero()
        assert parts.rat_part_num == Poly.one()  # -A/y = -1/x
        assert parts.obstruction.is_zero()

    def test_log_obstruction(self):
        parts = integrate_shape(X, Poly([-1, 1]))
        assert parts.obstruction == Poly.one()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            integrate_shape(X, Poly.one())
        with pytest.raises(ValueError):
            integrate_shape(X, Poly([0, 0, 1]))  # x^2 not squarefree
        with pytest.raises(ValueError):
            integrate_shape(X, Poly([0, 2]))  # not monic

    def test_round_trip(self):
        rng = random.Random(4)
        checked = 0
        while checked < 60:
            N = rand_poly(rng, 5)
            y = rand_poly(rng, 3, zero_ok=False).monic()
            if y.degree() < 1 or not squarefree(y):
                continue
            P, A, B = integrate_shape(N, y)
            lhs = RatFunc(P.derivative()) + RatFunc(A * y.derivative() - A.derivative() * y, y * y) + RatFunc(B, y)
            assert lhs == RatFunc(N, y * y)
            if B.is_zero():
                anti = RatFunc(P) - RatFunc(A, y)
                assert anti.derivative() == RatFunc(N, y * y)
            checked += 1


class TestRatFunc:
    def test_reduction_invariants(self):
        f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2x / 4x^2 = (1/2)/x
        assert f.num == Poly([F(1, 2)])
        assert f.den == X

    def test_field_inverse(self):
        rng = random.Random(5)
        for _ in range(60):
            f = rand_poly(rng, 3, zero_ok=False)
            g = rand_poly(rng, 3, zero_ok=False)
            q = RatFunc(f, g)
            assert q * (RatFunc(g, f)) == RatFunc.one()

    def test_pow_negative(self):
        q = RatFunc(Poly([1, 1]), X)
        assert q ** (-2) * q**2 == RatFunc.one()


class TestLogDerivative:
    def test_examples(self):
        assert log_derivative(RatFunc(Poly([0, 0, 1]))) == RatFunc(Poly([2]), X)
        assert log_derivative(RatFunc(Poly([5]))).is_zero()
        f = RatFunc(Poly([F(1, 4), F(-1, 2), 1]), Poly([F(-1, 2), 1]))
        num = Poly([F(-1, 2), 2]) * Poly([F(-1, 2), 1]) - Poly([F(1, 4), F(-1, 2), 1])
        den = Poly([F(1, 4), F(-1, 2), 1]) * Poly([F(-1, 2), 1])
        assert log_derivative(f) == RatFunc(num, den)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_derivative(RatFunc.zero())

    def test_additivity_under_products(self):
        rng = random.Random(6)
        done = 0
        while done < 100:
            f = rand_poly(rng, 4)
            g = rand_poly(rng, 4)
            if f.is_zero() or g.is_zero():
                continue
            lhs = log_derivative(RatFunc(f * g))
            rhs = log_derivative(RatFunc(f)) + log_derivative(RatFunc(g))
            assert lhs == rhs
            done += 1


SCALARS = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
NONZERO_POLYS = st.lists(SCALARS, max_size=4).map(Poly).filter(bool)


@st.composite
def log_derivative_inputs(draw):
    """Polys and RatFuncs, with repeated factors and constant num or den."""
    num, den = draw(NONZERO_POLYS), draw(NONZERO_POLYS)
    if draw(st.booleans()):
        num = num * draw(NONZERO_POLYS) ** 2
    if draw(st.booleans()):
        den = den * draw(NONZERO_POLYS) ** 3
    return draw(st.sampled_from([num, RatFunc(num, den), RatFunc(Poly.one(), den)]))


@settings(max_examples=200, deadline=None)
@given(log_derivative_inputs())
def test_log_derivative_is_derivative_over_f(f):
    lhs = log_derivative(f)
    f = RatFunc(f) if isinstance(f, Poly) else f
    assert lhs == f.derivative() / f


class TestRationalAntiderivative:
    def test_polynomial(self):
        f = RatFunc(Poly([1, 2]))
        anti = rational_antiderivative(f)
        assert anti == RatFunc(Poly([0, 1, 1]))

    def test_simple_pole_obstruction(self):
        assert rational_antiderivative(RatFunc(Poly.one(), X)) is None

    def test_double_pole(self):
        anti = rational_antiderivative(RatFunc(Poly.one(), X * X))
        assert anti == RatFunc(Poly([-1]), X)

    def test_high_multiplicity(self):
        # (x^6/36) / (x^3/3)^2 = 1/4: arises along repeated-direction paths
        f = RatFunc(Poly([0, 0, 0, 0, 0, 0, F(1, 36)]), (X**3 * F(1, 3)) ** 2)
        assert rational_antiderivative(f) == RatFunc(X * F(1, 4))

    def test_matches_integrate_shape_on_squarefree(self):
        rng = random.Random(7)
        done = 0
        while done < 50:
            N = rand_poly(rng, 5)
            y = rand_poly(rng, 3, zero_ok=False).monic()
            if y.degree() < 1 or not squarefree(y):
                continue
            P, A, B = integrate_shape(N, y)
            anti = rational_antiderivative(RatFunc(N, y * y))
            if B.is_zero():
                assert anti is not None
                assert anti.derivative() == RatFunc(N, y * y)
                # both routes give the same function up to a constant
                diff = anti - (RatFunc(P) - RatFunc(A, y))
                assert diff.derivative().is_zero()
            else:
                assert anti is None
            done += 1

    def test_ostrogradsky_identity(self):
        # num/den = (S/V)' + R/U with V = gcd(den, den'), U = den/V: the
        # antiderivative is S/V when R = 0 and not rational otherwise
        rng = random.Random(8)
        done = 0
        while done < 40:
            den = rand_poly(rng, 2, zero_ok=False).monic() ** rng.randint(1, 3)
            num = rand_poly(rng, den.degree() - 1) if den.degree() > 0 else Poly.zero()
            if den.degree() == 0 or num.degree() >= den.degree():
                continue
            V = poly_gcd(den, den.derivative())
            U = den // V
            anti = rational_antiderivative(RatFunc(num, den))
            if anti is not None:
                assert anti.derivative() == RatFunc(num, den)
                assert (V % anti.den).is_zero()
            S = rand_poly(rng, V.degree() - 1) if V.degree() > 0 else Poly.zero()
            R = rand_poly(rng, U.degree() - 1)
            f = RatFunc(S, V).derivative() + RatFunc(R, U)
            assert rational_antiderivative(f) == (RatFunc(S, V) if R.is_zero() else None)
            done += 1


class TestWronskianPartner:
    def test_half_example(self):
        y = Poly([F(-1, 2), 1])
        u = wronskian_partner(y, Poly([0, -1, 1]))
        assert u == Poly([F(-1, 4), F(1, 2), -1])
        assert (u // y)(0) == 0

    def test_constant_y_integrates(self):
        u = wronskian_partner(Poly.const(F(-2, 3)), Poly([1, 2]))
        assert u == Poly([0, 1, 1]) * F(3, 2)  # -(x + x^2) / (-2/3)

    def test_no_partner(self):
        assert wronskian_partner(X - Poly.one(), X) is None  # log(x - 1)
        assert wronskian_partner(X * X, Poly.one()) is None  # -1/(3x^3) * x^2
        assert wronskian_partner(X**3, X**5) is None  # deg u would be d

    def test_zero_rhs_and_zero_y(self):
        assert wronskian_partner(Poly([1, 1]), Poly.zero()) == Poly.zero()
        with pytest.raises(ValueError):
            wronskian_partner(Poly.zero(), X)

    def test_round_trip_with_multiples_of_y(self):
        # every partner is the normalized one plus c*y, for any nonzero y
        rng = random.Random(9)
        for _ in range(80):
            y = rand_poly(rng, 4, zero_ok=False)
            u0 = rand_poly(rng, 5)
            u = wronskian_partner(y, wronskian(y, u0))
            assert u is not None
            assert wronskian(y, u) == wronskian(y, u0)
            assert (u // y)(0) == 0
            c = (u0 - u) // y
            assert c.degree() <= 0 and u + y * c.coeff(0) == u0

    def test_matches_integrate_shape_on_squarefree(self):
        # integrate_shape is the Hermite reference: u = -(y P - A), B = 0
        rng = random.Random(10)
        done = 0
        while done < 60:
            N = rand_poly(rng, 6)
            y = rand_poly(rng, 3, zero_ok=False).monic()
            if y.degree() < 1 or not squarefree(y):
                continue
            if rng.random() < 0.5:
                N = wronskian(y, rand_poly(rng, 5))
            P, A, B = integrate_shape(N, y)
            u = wronskian_partner(y, N)
            if B.is_zero():
                assert u == A - y * P
            else:
                assert u is None
            done += 1


class TestPow:
    @pytest.mark.parametrize("n", list(range(10)) + [256])
    def test_products_and_value(self, n, monkeypatch):
        base = Poly([F(-1, 3), 1, F(1, 2)])
        expected = Poly.one()
        for _ in range(n):
            expected = expected * base
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        assert base**n == expected
        assert len(products) == (n.bit_length() + n.bit_count() - 2 if n else 0)
