"""Miura opers, Riccati deformations, reduced tuples, and T-twisted functions.

The oper attached to a tuple is stored through its Cartan-part coordinates
c_j in the H-basis, c_j = log'(y_j) - sum_l b_{j,l} log'(T_l), so that the
defining pairings v_i = sum_j a_{i,j} c_j recover -log'(T_i prod_j
y_j^(-a_ij)) exactly.  Deforming in direction i adds a rational Riccati
solution g to c_i; the only such g are logarithmic derivatives of
descendant ratios, which is what ties opers to the reproduction procedure.

`TwistedFunc` implements the coefficient field of the explicit solutions:
finite sums of rational functions times formal monomials in T_l^(1/d),
d the Cartan determinant.  Exponent vectors are canonicalized to [0, 1)
with integer parts folded into the rational coefficient, which makes the
relation (T^(1/d))^d = T hold definitionally; no branch is ever evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .exactalg import Poly, RatFunc, binary_power, log_derivative
from .critical import PolyTuple, ProblemData, fertility_direction, wronskian_rhs
from .liedata import CartanData, langlands_dual
from .population import ReproductionPath


class DeformationError(ValueError):
    """Raised when an oper is not deformable in the requested direction."""


@dataclass(frozen=True)
class MiuraOper:
    """V = sum_j h_coords[j] H_j, an oper of the Langlands-dual algebra."""

    dual: CartanData
    h_coords: tuple[RatFunc, ...]
    provenance: Optional[tuple[PolyTuple, ProblemData]] = None

    def pairing(self, i: int) -> RatFunc:
        """v_i = <dual root i, V>; equals sum_j a_{i,j} c_j."""
        acc = RatFunc.zero()
        for j in range(self.dual.rank):
            # dual.a is the transposed matrix, so dual.a[j][i-1] = a[i-1][j]
            coeff = self.dual.a[j][i - 1]
            if coeff:
                acc = acc + self.h_coords[j] * coeff
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MiuraOper)
            and self.dual == other.dual
            and self.h_coords == other.h_coords
        )


def miura_from_tuple(y: PolyTuple, p: ProblemData) -> MiuraOper:
    """The oper associated with weights, points, and the tuple y.

    c_j = log'(reduced y_j); the defining pairing identity is re-verified
    before returning.
    """
    r = p.rank
    log_T = [log_derivative(RatFunc(t)) if t.degree() > 0 else RatFunc.zero() for t in p.T]
    coords = []
    for j in range(r):
        c = log_derivative(RatFunc(y[j])) if y[j].degree() > 0 else RatFunc.zero()
        for l in range(r):
            if p.cartan.b[j][l] != 0 and not log_T[l].is_zero():
                c = c - log_T[l] * p.cartan.b[j][l]
        coords.append(c)
    oper = MiuraOper(dual=langlands_dual(p.cartan), h_coords=tuple(coords), provenance=(y, p))
    for i in range(1, r + 1):
        combo = RatFunc(wronskian_rhs(y, i, p), y[i - 1] ** 2)
        if oper.pairing(i) != -log_derivative(combo):
            raise AssertionError(f"oper pairing invariant failed in direction {i}")
    return oper


def riccati_residual(g: RatFunc, i: int, D: MiuraOper) -> RatFunc:
    """g' + v_i g + g^2, exactly."""
    return g.derivative() + D.pairing(i) * g + g * g


class RiccatiFamily(NamedTuple):
    """All nonzero rational Riccati solutions in direction i.

    They are g_c = log'((~y_i + c y_i)/y_i) for rational c; `canonical`
    is the ~y_i with zero integration constant, made monic.
    """

    direction: int
    base: Poly
    canonical: Poly
    solution: Callable[[Union[int, Fraction]], RatFunc]


def riccati_solutions(D: MiuraOper, i: int) -> RiccatiFamily:
    if D.provenance is None:
        raise DeformationError("oper carries no tuple provenance; cannot enumerate solutions")
    y, p = D.provenance
    tilde = fertility_direction(y, i, p)
    if tilde is None:
        raise DeformationError(f"D is not deformable in the {i}-th direction")
    base = y[i - 1]

    def solution(c: Union[int, Fraction]) -> RatFunc:
        member = tilde + base * Fraction(c)
        return log_derivative(RatFunc(member, base))

    return RiccatiFamily(direction=i, base=base, canonical=tilde, solution=solution)


def deform(
    D: MiuraOper,
    i: int,
    g: RatFunc,
    descendant: Optional[PolyTuple] = None,
) -> MiuraOper:
    """Gauge deformation V -> V + g H_i; g must solve the Riccati equation."""
    if not g.is_zero():
        residual = riccati_residual(g, i, D)
        if not residual.is_zero():
            raise DeformationError(
                f"g does not solve the Riccati equation in direction {i}: residual {residual}"
            )
    coords = list(D.h_coords)
    coords[i - 1] = coords[i - 1] + g
    provenance = None
    if descendant is not None and D.provenance is not None:
        provenance = (descendant, D.provenance[1])
    return MiuraOper(dual=D.dual, h_coords=tuple(coords), provenance=provenance)


# ---------------------------------------------------------------------------
# The twisted function field Q(x)[T_1^(1/d), ..., T_r^(1/d)]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistContext:
    """Shared data of a twisted field: the T polynomials and d = det a."""

    d: int
    T: tuple[Poly, ...]

    @property
    def rank(self) -> int:
        return len(self.T)


def twist_context(p: ProblemData) -> TwistContext:
    return TwistContext(d=p.cartan.det_d, T=p.T)


ExpVec = tuple[Fraction, ...]


class TwistedFunc:
    """Finite sum of RatFunc coefficients times formal monomials in T^q.

    Exponent vectors live in (1/d)Z^r and are stored canonically in
    [0, 1); nodes with T_l = 1 always carry exponent 0.  No zero
    coefficients are stored; the zero element has an empty term map.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TwistContext, terms: dict[ExpVec, RatFunc]):
        self.ctx = ctx
        self.terms = {q: c for q, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx: TwistContext) -> "TwistedFunc":
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx: TwistContext) -> "TwistedFunc":
        return cls.from_rat(ctx, RatFunc.one())

    @classmethod
    def from_rat(cls, ctx: TwistContext, f: Union[RatFunc, Poly, int, Fraction]) -> "TwistedFunc":
        if isinstance(f, Poly):
            f = RatFunc(f)
        elif not isinstance(f, RatFunc):
            f = RatFunc(Poly.const(f))
        return cls(ctx, {(Fraction(0),) * ctx.rank: f})

    @classmethod
    def term(cls, ctx: TwistContext, coeff: Union[RatFunc, Poly], exponents: Sequence) -> "TwistedFunc":
        if isinstance(coeff, Poly):
            coeff = RatFunc(coeff)
        q, up, down = _fold(ctx, tuple(Fraction(e) for e in exponents))
        return cls(ctx, {q: coeff * RatFunc(up, down)})

    @classmethod
    def t_power(cls, ctx: TwistContext, l: int, exponent) -> "TwistedFunc":
        """T_l ^ exponent (1-based node index)."""
        exps = [Fraction(0)] * ctx.rank
        exps[l - 1] = Fraction(exponent)
        return cls.term(ctx, RatFunc.one(), exps)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> tuple[ExpVec, RatFunc]:
        if not self.is_single_term():
            raise ValueError("not a single-term twisted function")
        return next(iter(self.terms.items()))

    def exponent_vectors(self) -> list[ExpVec]:
        return sorted(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "TwistedFunc") -> None:
        if self.ctx != other.ctx:
            raise ValueError("twisted functions from different contexts")

    def __add__(self, other: "TwistedFunc") -> "TwistedFunc":
        self._check(other)
        out = dict(self.terms)
        for q, c in other.terms.items():
            out[q] = out.get(q, RatFunc.zero()) + c
        return TwistedFunc(self.ctx, out)

    def __neg__(self) -> "TwistedFunc":
        return TwistedFunc(self.ctx, {q: -c for q, c in self.terms.items()})

    def __sub__(self, other: "TwistedFunc") -> "TwistedFunc":
        return self + (-other)

    def __mul__(self, other: Union["TwistedFunc", RatFunc, Poly, int, Fraction]) -> "TwistedFunc":
        if not isinstance(other, TwistedFunc):
            other = TwistedFunc.from_rat(self.ctx, other)
        self._check(other)
        out: dict[ExpVec, RatFunc] = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in other.terms.items():
                raw = tuple(a + b for a, b in zip(q1, q2))
                q, up, down = _fold(self.ctx, raw)
                prod = c1 * c2 * RatFunc(up, down)
                out[q] = out.get(q, RatFunc.zero()) + prod
        return TwistedFunc(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: Union[int, Fraction]) -> "TwistedFunc":
        if isinstance(n, Fraction) and n.denominator != 1:
            return self._pow_rational(n)
        n = int(n)
        if n >= 0:
            return binary_power(self, n) if n else TwistedFunc.one(self.ctx)
        q, c = self.single_term()  # raises for multi-term negative powers
        if c.is_zero():
            raise ZeroDivisionError("negative power of zero")
        inv_q, up, down = _fold(self.ctx, tuple(-e for e in q))
        inverse = TwistedFunc(self.ctx, {inv_q: RatFunc(up, down) / c})
        return inverse if n == -1 else inverse ** (-n)

    def _pow_rational(self, n: Fraction) -> "TwistedFunc":
        q, c = self.single_term()
        if not c.is_constant() or c.constant_value() != 1:
            raise ValueError("rational powers exist only for pure T-monomials")
        raw = tuple(e * n for e in q)
        for e in raw:
            if (e * self.ctx.d).denominator != 1:
                raise ValueError("rational power leaves the (1/d)Z exponent lattice")
        qout, up, down = _fold(self.ctx, raw)
        return TwistedFunc(self.ctx, {qout: RatFunc(up, down)})

    def derivative(self) -> "TwistedFunc":
        """d/dx termwise: (f T^q)' = (f' + f sum q_l T_l'/T_l) T^q."""
        out: dict[ExpVec, RatFunc] = {}
        for q, c in self.terms.items():
            coeff = c.derivative()
            for l, e in enumerate(q):
                if e != 0:
                    coeff = coeff + c * e * log_derivative(RatFunc(self.ctx.T[l]))
            if not coeff.is_zero():
                out[q] = out.get(q, RatFunc.zero()) + coeff
        return TwistedFunc(self.ctx, out)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedFunc):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        if self.is_zero():
            return "TwistedFunc(0)"
        bits = []
        for q in sorted(self.terms):
            c = self.terms[q]
            mono = " ".join(f"T_{l + 1}^{e}" for l, e in enumerate(q) if e != 0)
            bits.append(f"({c})" + (f" {mono}" if mono else ""))
        return "TwistedFunc(" + " + ".join(bits) + ")"


def _fold(ctx: TwistContext, raw: ExpVec) -> tuple[ExpVec, Poly, Poly]:
    """Canonicalize exponents to [0, 1): T^raw = T^q * up / down, no gcd taken."""
    q = []
    up, down = Poly.one(), Poly.one()
    for l, e in enumerate(raw):
        if (e * ctx.d).denominator != 1:
            raise ValueError(f"exponent {e} is not in (1/{ctx.d})Z")
        if ctx.T[l].degree() == 0:
            # T_l = 1: the twist is trivial at this node
            q.append(Fraction(0))
            continue
        k = e.numerator // e.denominator  # floor
        q.append(e - k)
        if k > 0:
            up = up * ctx.T[l] ** k
        elif k < 0:
            down = down * ctx.T[l] ** (-k)
    return tuple(q), up, down


def twisted_wronskian(u: TwistedFunc, v: TwistedFunc) -> TwistedFunc:
    return u.derivative() * v - u * v.derivative()


def twisted_proportional(u: TwistedFunc, v: TwistedFunc) -> bool:
    """u = lambda v for a nonzero scalar lambda."""
    if u.is_zero() or v.is_zero():
        return u.is_zero() and v.is_zero()
    if set(u.terms) != set(v.terms):
        return False
    q0 = next(iter(u.terms))
    ratio = u.terms[q0] / v.terms[q0]
    if not ratio.is_constant() or ratio.constant_value() == 0:
        return False
    lam = ratio.constant_value()
    return all(u.terms[q] == v.terms[q] * lam for q in u.terms)


# ---------------------------------------------------------------------------
# Reduced tuples and the reduced Wronskian relations
# ---------------------------------------------------------------------------


def reduced_tuple(y: PolyTuple, p: ProblemData, ctx: Optional[TwistContext] = None) -> list[TwistedFunc]:
    """reduced y_i = y_i prod_l T_l^(-b_il), as single-term twisted functions."""
    if ctx is None:
        ctx = twist_context(p)
    out = []
    for i in range(p.rank):
        exps = [-p.cartan.b[i][l] for l in range(p.rank)]
        out.append(TwistedFunc.term(ctx, RatFunc(y[i]), exps))
    return out


class ReducedCheck(NamedTuple):
    ok: bool
    failing_step: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


def reduced_wronskian_check(path: ReproductionPath, p: ProblemData) -> ReducedCheck:
    """Verify the reduced relations along a path, up to nonzero scalars.

    At step l with direction i the relation is
    W(red_prev_i, red_new_i) ~ prod_{j != i} red_prev_j^(-a_ij).
    """
    ctx = twist_context(p)
    prev = reduced_tuple(path.seed, p, ctx)
    for step, i in enumerate(path.indices, start=1):
        current = reduced_tuple(path.tuples[step - 1], p, ctx)
        lhs = twisted_wronskian(prev[i - 1], current[i - 1])
        rhs = TwistedFunc.one(ctx)
        for j in range(1, p.rank + 1):
            if j == i:
                continue
            e = -p.cartan.a[i - 1][j - 1]
            if e:
                rhs = rhs * prev[j - 1] ** e
        if not twisted_proportional(lhs, rhs):
            return ReducedCheck(False, step)
        prev = current
    return ReducedCheck(True, None)
