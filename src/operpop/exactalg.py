"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial is stored as a list of Python int numerators (ascending
powers) over one positive int denominator, in a normal form that makes
the stored pair unique: no trailing zero numerator, gcd(den, *nums) = 1,
and den = 1 for zero.  `==` and `hash` compare the pair, and the ring
operations, `derivative` and `monic` work on ints only; `.coeffs`,
`coeff`, `leading` and evaluation hand out `fractions.Fraction`s.
Division is a pseudo-division on the numerators, s * a = Q * b + R with s
a divisor of lc(b)^(deg a - deg b + 1), followed by one division of Q and
R by a scalar.  Rational functions are kept reduced with a monic
denominator.  On top of the ring operations the module provides the two
primitives everything else is built from:

* `wronskian(f, g) = f'g - fg'`,
* `wronskian_partner(y, N)`: the polynomial u with W(y, u) = N, found by
  one triangular solve on the coefficients (no gcd, no factorization), or
  None when there is none.  Fertility, calibrated reproduction steps and
  `rational_antiderivative(f)` are all this one question.

`poly_gcd` takes nonconstant f and g through one integer gcd (the
heuristic gcd of Char, Geddes & Gonnet, J. Symbolic Comput. 1989) and a
trial division.  The gcd over Q of f and g is that of the stored integer
numerators F = den_f * f and G = den_g * g; let H be their primitive gcd
in Z[x].  By Cauchy's bound every root of F has modulus below
1 + ||F||_inf, so every common root has modulus below
B = 1 + min(||F||_inf, ||G||_inf).  Take xi = 2^k >= 2^17 * B >= 2B and
gamma = gcd(F(xi), G(xi)), nonzero since xi is no root of the operand of
smaller norm.  A factor q of H with deg q >= 1 has
|q(xi)| >= prod |xi - z| > (xi - B)^deg q >= xi/2 (z over the roots of q),
and q(xi) divides gamma.  Hence:

* gamma < xi/2 proves gcd(f, g) = 1;
* otherwise let h be the primitive part of the balanced base-xi digits of
  gamma (each digit of modulus at most xi/2, so gamma = c * h(xi) with
  0 < c <= xi/2).  If h divides F and G, then H = h * q with q in Z[x]
  (Gauss's lemma) and H(xi) divides gamma, so q(xi) divides c; as
  |c| <= xi/2, q is constant and h.monic() is the monic gcd;
* if h fails the trial division (an unlucky xi), Euclid over Q decides.

The trial division keeps its quotients f/h and g/h (`_gcd_parts`), and
each is one integer long division (`_exact_quotient`).  A monic h = H/den
has H primitive (gcd(den, *H) = 1 and lc(H) = den), so if h divides
a = A/den_a then A = H Q with Q in Z[x] (Gauss's lemma): every step of
the long division of A by H has an integer quotient coefficient and the
remainder is 0.  A step that lc(H) does not divide, or a nonzero final
remainder, proves h does not divide a; otherwise a/h = Q lc(H) / den_a.

The same bound decides polynomial identities without expanding them
(`_identity_holds`).  A nonzero R in Z[x] has every root z of modulus
|z| < 1 + ||R||_inf / |lc R| <= 1 + ||R||_inf, as |lc R| >= 1.  So for any
B >= ||R||_inf and any 2^k > B + 1, R = 0 iff R(2^k) = 0: one integer
evaluation per factor and a few big-integer products decide R = 0.  An
identity that is a sum of products of polynomials over Q and int
constants, with one factor from each of a fixed set of groups in every
term, becomes one in Z[x] when each group is scaled by the lcm of its
denominators, and the same sum of products taken on the factors' 1-norms,
every sign read as + and every constant by its modulus, is such a B.

Euclid over Q runs through `divmod`, keeping the primitive part of each
remainder (a primitive remainder sequence), so every answer is the exact
monic gcd (Brown 1971; von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 6).

`integrate_shape(N, y)` (the Hermite split N/y^2 = P' + (-A/y)' + B/y for
squarefree monic y, via `poly_ext_gcd`) is kept as an independent
reference that the engine does not call.

Everything here is pure value arithmetic; no floats, no global state.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

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
    """Dense univariate polynomial over Q, ascending.

    Stored as int numerators `_num` over one positive int denominator
    `_den`, in the normal form of the module docstring; `.coeffs` and the
    other scalar accessors hand out `Fraction`s.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [c if type(c) is int else as_scalar(c) for c in coeffs]
        den = 1
        for c in cs:
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        # den is the lcm of the reduced denominators, so the form is normal
        self._num: list[int] = nums
        self._den: int = den

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: ScalarLike) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return _raw([0, 1], 1)

    @classmethod
    def from_roots(cls, roots: Sequence[ScalarLike]) -> "Poly":
        out = cls.one()
        for root in roots:
            out = out * cls((-as_scalar(root), 1))
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return _raw([], 1)

    @classmethod
    def one(cls) -> "Poly":
        return _raw([1], 1)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._num))
        return tuple(Fraction(n, den) for n in self._num)

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._num[k], self._den) if 0 <= k < len(self._num) else Fraction(0)

    def monic(self) -> "Poly":
        if not self._num:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._num[-1]
        if lead == self._den:
            return self
        if lead < 0:
            return _poly([-c for c in self._num], -lead)
        return _poly(self._num, lead)

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        den, mb = self._den, sign
        if den != other._den:
            g = gcd(den, other._den)
            ma = other._den // g
            mb *= den // g
            if ma != 1:
                a = [c * ma for c in a]
                den *= ma
        if mb != 1:
            b = [c * mb for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b) :]
        return _poly(out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __neg__(self) -> "Poly":
        return _raw([-c for c in self._num], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __mul__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        a = self._num
        if not isinstance(other, Poly):
            s = other if isinstance(other, (int, Fraction)) else as_scalar(other)
            p, q = s.numerator, s.denominator
            if not p or not a:
                return _raw([], 1)
            # cancel p against _den and q against the content: normal as built
            g, h = gcd(p, self._den), gcd(q, *a)
            if h != 1:
                a = [c // h for c in a]
            p //= g
            return _raw([c * p for c in a], self._den // g * (q // h))
        b = other._num
        if not a or not b:
            return _raw([], 1)
        if len(a) > len(b):
            a, b = b, a
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x:
                out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n) if n else Poly.one()

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division s * a = Q * b + R on the numerators, then one
        division of Q and R by a scalar.

        Each step multiplies by lc(b) / gcd(lc(b), top) only, so s divides
        lc(b)^(deg a - deg b + 1) and is 1 when lc(b) divides every top.
        """
        b = other._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n = len(b) - 1
        dq = len(self._num) - 1 - n
        if dq < 0:
            return _raw([], 1), self
        rem = list(self._num)
        quot = [0] * (dq + 1)
        lc, low, scale = b[-1], b[:-1], 1
        for k in range(dq, -1, -1):
            r = rem[k + n]
            if not r:
                continue
            g = gcd(r, lc) if lc > 0 else -gcd(r, lc)
            m, c = lc // g, r // g
            if m != 1:
                scale *= m
                rem[: k + n] = [x * m for x in rem[: k + n]]
                quot[k + 1 :] = [x * m for x in quot[k + 1 :]]
            quot[k] = c
            rem[k : k + n] = [x - c * y for x, y in zip(rem[k : k + n], low)]
        den = scale * self._den
        if other._den != 1:
            quot = [x * other._den for x in quot]
        return _poly(quot, den), _poly(rem[:n], den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        a = self._num
        return _poly([k * a[k] for k in range(1, len(a))], self._den)

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
        return isinstance(other, Poly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: the slot is unset until here
            self._hash = h = hash((self._den, *self._num))
            return h

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def coeff_strs(self) -> list[str]:
        """[str(c) for c in self.coeffs], read from the stored ints without
        building Fractions."""
        den = self._den
        if den == 1:
            return [str(n) for n in self._num]
        return [f"{n // g}/{den // g}" if (g := gcd(n, den)) != den else str(n // g) for n in self._num]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        cs = self.coeff_strs()
        parts = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if c == "0":
                continue
            if k == 0:
                term = c
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == "1":
                    term = xs
                elif c == "-1":
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _raw(nums: list[int], den: int) -> Poly:
    """The Poly nums / den; the pair must already be in normal form."""
    p = object.__new__(Poly)
    p._num, p._den = nums, den
    return p


def _poly(nums: list[int], den: int) -> Poly:
    """The Poly nums / den for any nonzero den; strips nums in place."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw(nums, 1)
    if den != 1:
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return _raw(nums, den)


def _primitive(f: Poly) -> Poly:
    """f over the gcd of its numerators, leading numerator positive: the
    same for f and g exactly when g is a nonzero rational multiple of f.
    Zero stays zero."""
    nums = f._num
    if not nums:
        return f
    g = gcd(*nums)
    if nums[-1] < 0:
        g = -g
    if g == 1 and f._den == 1:
        return f
    return _raw([c // g for c in nums], 1)


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


def _value_at_power_of_two(nums: list[int], k: int) -> int:
    """The integer polynomial with ascending coefficients nums at x = 2^k."""
    acc = 0
    for c in reversed(nums):
        acc = (acc << k) + c
    return acc


class _Norm(int):
    """A bound on a 1-norm: sums and differences of bounds add, products
    multiply and an int factor counts by its modulus, so a formula over
    polynomials run on its factors' 1-norms bounds its value's 1-norm."""

    __slots__ = ()

    def __add__(self, other):
        return _Norm(int(self) + abs(other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Norm(int(self) * abs(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self


def _identity_holds(formula: Callable[..., list], groups: Sequence[Sequence[Poly]]) -> bool:
    """True iff every entry of formula(*groups) is the zero polynomial,
    decided at one x = 2^k (the identity route of the module docstring).

    `formula` takes one list of values per group of Poly factors and
    returns entries that are sums of products with exactly one factor from
    every group and int constants.  Each group is scaled to the lcm of its
    factors' denominators, and the formula on the scaled numerators'
    1-norms (`_Norm`) bounds every entry's norm.
    """
    scaled = []
    for group in groups:
        m = lcm(*(f._den for f in group))
        scaled.append([(f._num, m // f._den) for f in group])
    bound = max(formula(*[[_Norm(s * sum(map(abs, nums))) for nums, s in g] for g in scaled]), default=0)
    k = (bound + 1).bit_length()  # 2^k > bound + 1
    values = [[s * _value_at_power_of_two(nums, k) for nums, s in g] for g in scaled]
    return not any(formula(*values))


def _balanced_digits(n: int, k: int) -> list[int]:
    """The digits of n > 0 in base 2^k, ascending, each in (-2^(k-1), 2^(k-1)]."""
    half, mask, digits = 1 << (k - 1), (1 << k) - 1, []
    while n:
        d = n & mask
        if d > half:
            d -= mask + 1
        digits.append(d)
        n = (n - d) >> k
    return digits


def _exact_quotient(a: Poly, h: Poly) -> Optional[Poly]:
    """a / h for a monic h that divides a, else None: the integer long
    division of the module docstring, stopped at the first remainder."""
    b, rem = h._num, list(a._num)
    n, lc = len(b) - 1, b[-1]
    low, quot = b[:-1], [0] * (len(rem) - n)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + n], lc)
        if r:
            return None
        if c:
            quot[k] = c
            rem[k : k + n] = [x - c * y for x, y in zip(rem[k : k + n], low)]
    if any(rem[:n]):
        return None
    return _poly([c * lc for c in quot] if lc != 1 else quot, a._den)


def _gcd_parts(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f / h, g / h) for the monic gcd h of f and g; (0, 0, 0) for f = g = 0.

    h is 1 at once when both operands are nonzero and one is constant; two
    nonconstant operands first take one integer gcd at x = 2^k (the
    evaluation route of the module docstring), giving 1 or a candidate whose
    trial division gives the cofactors; a failed candidate, and a zero
    operand, run Euclid over Q on primitive remainders."""
    if f and g:
        if f.degree() == 0 or g.degree() == 0:
            return Poly.one(), f, g
        F, G = f._num, g._num
        k = (1 + min(max(map(abs, F)), max(map(abs, G)))).bit_length() + 17
        gamma = gcd(_value_at_power_of_two(F, k), _value_at_power_of_two(G, k))
        if gamma < 1 << (k - 1):
            return Poly.one(), f, g
        h = _primitive(_raw(_balanced_digits(gamma, k), 1)).monic()
        fh = _exact_quotient(f, h)
        if fh is not None and (gh := _exact_quotient(g, h)) is not None:
            return h, fh, gh
    a, b = f, g
    while b:
        a, b = b, _primitive(a % b)
    if a.is_zero():
        return a, a, a
    h = a.monic()
    return h, _exact_quotient(f, h), _exact_quotient(g, h)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  The first part of `_gcd_parts`."""
    return _gcd_parts(f, g)[0]


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
    inv = 1 / r0.leading()
    return r0.monic(), s0 * inv, t0 * inv


def _binary(op):
    """op(self, other) with other as a RatFunc; NotImplemented for an operand
    that is no RatFunc, Poly or exact scalar, so its reflected method runs."""

    def coerced(self, other):
        if not isinstance(other, (RatFunc, Poly, int, Fraction, str)):
            return NotImplemented
        return op(self, _coerce(other))

    return coerced


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
        _, num, den = _gcd_parts(num, den)
        lead, d = den._num[-1], den._den
        if lead != d:
            num, den = num * Fraction(d, lead), den.monic()
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    @_binary
    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    @_binary
    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    @_binary
    def __rsub__(self, other: "RatFunc") -> "RatFunc":
        return other + (-self)

    @_binary
    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    @_binary
    def __rtruediv__(self, other: "RatFunc") -> "RatFunc":
        return other / self

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
        if self.den.degree() == 0:  # a monic constant is 1
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
    """True iff f has no repeated roots, i.e. gcd(f, f') is constant, as
    decided by `poly_gcd` (its evaluation route at x = 2^k first)."""
    if f.is_zero():
        raise ValueError("squarefree is undefined for the zero polynomial")
    return f.degree() == 0 or poly_gcd(f, f.derivative()).degree() == 0


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
    shift fixes so that (u // y)(0) = 0; the shift is read from the top
    deg u - d + 1 coefficients (`_quotient_constant`), with no full
    division.  A partner exists iff the residual of the solve is zero.  No
    gcd, and y need not be monic or squarefree.
    """
    if y.is_zero():
        raise ValueError("wronskian_partner needs a nonzero y")
    # W(y, u) = N is W(ys, v) = ns for y = ys/dy, N = ns/dn, u = v dy/dn;
    # u and rem hold `scale` times their values, so every step is on ints
    ys = y._num
    d = len(ys) - 1
    lead = ys[-1]
    rem = list(N._num)
    u = [0] * max(len(rem) + 1 - d, 0)
    scale = 1
    for k in range(len(u) - 1, -1, -1):
        if k == d:
            continue
        r = rem[d + k - 1]
        if not r:
            continue
        t = (d - k) * lead
        g = gcd(r, t) if t > 0 else -gcd(r, t)
        m, c = t // g, r // g
        if m != 1:
            scale *= m
            rem = [x * m for x in rem]
            u = [x * m for x in u]
        u[k] = c
        for i, yi in enumerate(ys):
            if yi and i != k:
                rem[i + k - 1] -= c * (i - k) * yi
    if any(rem):
        return None
    if y._den != 1:
        u = [x * y._den for x in u]
    partner = _poly(u, scale * N._den)
    shift = _quotient_constant(partner, y)
    return partner - y * shift if shift else partner


def _quotient_constant(f: Poly, y: Poly) -> Fraction:
    """(f // y).coeff(0) for nonzero y, from the top deg f - deg y + 1
    coefficients of f only.

    Fraction-free top-down division: with e = deg f - deg y, each of the e
    steps scales what is left by lc(y) before it cancels the top
    coefficient, so the coefficient left at x^(deg y) is lc(y)^(e+1) times
    the constant of the quotient of the numerators.
    """
    ys, d = y._num, len(y._num) - 1
    e = len(f._num) - 1 - d
    if e < 0:
        return Fraction(0)
    lead, rem = ys[-1], f._num[d:]
    low = [0] * e + ys[:-1]  # low[e + j] = ys[j], and 0 for j < 0
    for k in range(e, 0, -1):
        # rem <- lead * rem - rem[k] * x^k * ys, whose top term cancels
        c = rem[k]
        rem = [lead * r - c * t for r, t in zip(rem[:k], low[d + e - k :])]
    return Fraction(rem[0] * y._den, lead ** (e + 1) * f._den)


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
