"""Exact univariate polynomial and rational-function arithmetic over Q.

Scalars are `fractions.Fraction` throughout (arbitrary precision, always
stored reduced with a positive denominator, which is exactly the invariant
we need).  Polynomials are dense ascending coefficient tuples; rational
functions are kept reduced with a monic denominator.  On top of the ring
operations the module provides the two primitives everything else is
built from:

* `wronskian(f, g) = f'g - fg'`,
* `wronskian_partner(y, N)`: the polynomial u with W(y, u) = N, found by
  one triangular solve on the coefficients (no gcd, no factorization), or
  None when there is none.  Fertility, calibrated reproduction steps and
  `rational_antiderivative(f)` are all this one question.

`poly_gcd` first tries a certificate of coprimality mod the prime
_P = 2^61 - 1.  It applies when _P divides no coefficient denominator of
f and g and neither leading coefficient.  Suppose f = h*k over Q with h
primitive in Z[x] and deg h >= 1.  Then k has _P-integral coefficients
(Gauss's lemma over Z localised at _P), and h mod _P keeps its degree
because _P does not divide lc f = lc h * lc k; so h mod _P divides the
images of f and of g.  Hence a constant gcd of the images proves a
constant gcd over Q, and `poly_gcd` returns 1 without Euclid over Q.  In
every other case it runs Euclid over Q, so every answer is the exact
monic gcd (Brown 1971; von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 6).

`integrate_shape(N, y)` (the Hermite split N/y^2 = P' + (-A/y)' + B/y for
squarefree monic y, via `poly_ext_gcd`) is kept as an independent
reference that the engine does not call.

Everything here is pure value arithmetic; no floats, no global state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Fraction
ScalarLike = Union[int, str, Fraction]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce ints, Fractions and exact strings like "-3/7" to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing (leading-power) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: ScalarLike) -> "Poly":
        return cls((as_scalar(c),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def from_roots(cls, roots: Sequence[ScalarLike]) -> "Poly":
        out = cls.one()
        for root in roots:
            out = out * cls((-as_scalar(root), Fraction(1)))
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((Fraction(1),))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly(c / lead for c in self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        if not isinstance(other, Poly):
            s = as_scalar(other)
            return Poly(c * s for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n) if n else Poly.one()

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        dlead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / dlead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem[: len(other.coeffs) - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term."""
        out = [Fraction(0)]
        out.extend(c / (k + 1) for k, c in enumerate(self.coeffs))
        return Poly(out)

    def __call__(self, value: ScalarLike) -> Fraction:
        v = as_scalar(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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


def binary_power(base, n: int):
    """base ** n for n >= 1 by left-to-right square-and-multiply.

    Uses n.bit_length() + n.bit_count() - 2 products and builds no square
    beyond the last bit; `base` is any value with an exact `*`.
    """
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


# The prime of the coprimality certificate in `poly_gcd`.
_P = 2**61 - 1


def _mod_p(f: Poly) -> Optional[list[int]]:
    """f mod _P, leading coefficient first, or None if _P divides a
    denominator or the leading coefficient of f."""
    out = []
    for c in reversed(f.coeffs):
        n, d = c.numerator, c.denominator
        if d != 1:
            if d % _P == 0:
                return None
            n *= pow(d, -1, _P)
        out.append(n % _P)
    return out if out[0] else None


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True iff Euclid mod _P on nonzero a, b (leading coefficient first,
    nonzero) ends at a nonzero constant.

    Each step takes the pseudo-remainder lc(b)^e * a mod b: scaling by the
    unit lc(b) does not change the gcd, and it needs no inverse mod _P.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        b0, n = b[0], len(b)
        a = list(a)
        for k in range(len(a) - n + 1):
            c = a[k]
            if c:
                for j in range(1, n):
                    a[k + j] = (b0 * a[k + j] - c * b[j]) % _P
                for j in range(k + n, len(a)):
                    a[j] = b0 * a[j] % _P
        rem = a[len(a) - n + 1 :]
        while rem and not rem[0]:
            del rem[0]
        if not rem:
            return False
        a, b = b, rem
    return True


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.

    Answers 1 without Euclid over Q when the images of f and g mod _P are
    coprime (the certificate of the module docstring); otherwise, and for
    zero operands or operands that do not reduce mod _P, runs Euclid over Q.
    """
    if f.coeffs and g.coeffs:
        fp, gp = _mod_p(f), _mod_p(g)
        if fp is not None and gp is not None and _coprime_mod_p(fp, gp):
            return Poly.one()
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (d, s, t) with s*f + t*g = d, d monic."""
    r0, r1 = f, g
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = Fraction(1) / lead
    return r0.monic(), s0 * inv, t0 * inv


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[Poly, ScalarLike], den: Union[Poly, ScalarLike, None] = None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            inv = Fraction(1) / lead
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.num.coeff(0)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RatFunc") -> "RatFunc":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["RatFunc", Poly, ScalarLike]) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RatFunc", Poly, ScalarLike]) -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Union["RatFunc", Poly, ScalarLike]) -> "RatFunc":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RatFunc, Poly, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self})"

    def __str__(self) -> str:
        if self.den.degree() == 0 and self.den.coeff(0) == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _coerce(value: Union[RatFunc, Poly, ScalarLike]) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc(value)
    return RatFunc(Poly.const(value))


# ---------------------------------------------------------------------------
# Wronskians, squarefreeness, logarithmic derivatives
# ---------------------------------------------------------------------------


def wronskian(f: Poly, g: Poly) -> Poly:
    """W(f, g) = f'g - fg'."""
    return f.derivative() * g - f * g.derivative()


def squarefree(f: Poly) -> bool:
    """True iff f has no repeated roots, i.e. gcd(f, f') is constant."""
    if f.is_zero():
        raise ValueError("squarefree is undefined for the zero polynomial")
    if f.degree() == 0:
        return True
    return poly_gcd(f, f.derivative()).degree() == 0


def log_derivative(f: Union[RatFunc, Poly]) -> RatFunc:
    """f'/f in reduced form; additive under products.

    For reduced f = num/den this is num'/num - den'/den, whose gcds are of
    the size of f, where f'/f takes gcds of up to four times that size.
    """
    f = _coerce(f)
    if f.is_zero():
        raise ValueError("log' of the zero function is undefined")
    out = RatFunc(f.num.derivative(), f.num)
    if f.den.degree() > 0:
        out = out - RatFunc(f.den.derivative(), f.den)
    return out


# ---------------------------------------------------------------------------
# Wronskian partners and rational antiderivatives (one triangular solve)
# ---------------------------------------------------------------------------


def wronskian_partner(y: Poly, N: Poly) -> Optional[Poly]:
    """The polynomial u with W(y, u) = N and (u // y)(0) = 0, or None.

    W(y, x^k) = sum_i (i - k) y_i x^(i+k-1) has top term
    (d - k) lc(y) x^(d+k-1), d = deg y, so the coefficients u_m .. u_0,
    m = deg N + 1 - d, follow top-down from the coefficients of N.  The
    power k = d is skipped: it is the free multiple of y, which the final
    shift fixes so that (u // y)(0) = 0.  A partner exists iff the residual
    of the solve is zero.  No gcd, and y need not be monic or squarefree.
    """
    if y.is_zero():
        raise ValueError("wronskian_partner needs a nonzero y")
    ys = y.coeffs
    d = len(ys) - 1
    lead = ys[-1]
    rem = list(N.coeffs)
    u = [Fraction(0)] * max(len(rem) + 1 - d, 0)
    for k in range(len(u) - 1, -1, -1):
        if k == d:
            continue
        c = rem[d + k - 1] / ((d - k) * lead)
        if c == 0:
            continue
        u[k] = c
        for i, yi in enumerate(ys):
            if yi and i != k:
                rem[i + k - 1] -= c * (i - k) * yi
    if any(rem):
        return None
    partner = Poly(u)
    shift = (partner // y).coeff(0)
    return partner - y * shift if shift else partner


def rational_antiderivative(f: RatFunc) -> Optional[RatFunc]:
    """Antiderivative of f if it is a rational function, else None.

    A rational antiderivative F has a denominator dividing f.den, and
    F = G / f.den satisfies F' = f iff W(f.den, G) = -f.num * f.den, so G
    is minus a Wronskian partner.  The integration constant is fixed to
    zero: the polynomial part of F vanishes at 0.
    """
    G = wronskian_partner(f.den, f.num * f.den)
    if G is None:
        return None
    return RatFunc(-G, f.den)


# ---------------------------------------------------------------------------
# Hermite-style integration of N / y^2 for squarefree y
# ---------------------------------------------------------------------------


class ShapeParts(NamedTuple):
    """Decomposition N/y^2 = P' + (-A/y)' + B/y with deg B < deg y.

    The antiderivative of N/y^2 is rational exactly when the obstruction B
    is zero, in which case it equals P - A/y (constant fixed by P(0) = 0).
    """

    poly_part: Poly
    rat_part_num: Poly
    obstruction: Poly


def integrate_shape(N: Poly, y: Poly) -> ShapeParts:
    """Split N/y^2 into derivative and log parts for squarefree monic y.

    Uses the Bezout identity s*y + t*y' = 1:
        N/y^2 = (-A/y)' + P' + B/y,
    with A = N*t mod y, B = (N*s + (N*t)') mod y, and the polynomial parts
    collected into P, normalized so P(0) = 0.
    """
    if y.degree() < 1:
        raise ValueError("integrate_shape needs a nonconstant y")
    if not y.is_monic():
        raise ValueError("integrate_shape needs a monic y")
    d, s, t = poly_ext_gcd(y, y.derivative())
    if d.degree() != 0:
        raise ValueError("integrate_shape needs a squarefree y")
    Nt = N * t
    q, A = divmod(Nt, y)
    w = N * s + Nt.derivative()
    qw, B = divmod(w, y)
    P = (qw - q.derivative()).antiderivative()
    return ShapeParts(poly_part=P, rat_part_num=A, obstruction=B)
