"""Miura opers, Riccati deformations, reduced tuples, and T-twisted functions.

The oper attached to a tuple is stored through its Cartan-part coordinates
c_j in the H-basis, c_j = log'(y_j) - sum_l b_{j,l} log'(T_l), so that the
defining pairings v_i = sum_j a_{i,j} c_j recover -log'(T_i prod_j
y_j^(-a_ij)) exactly.  The denominator of c_j is known: c_j is written as
one numerator over y_j prod_l T_l (l with b_{j,l} != 0 and deg T_l > 0) and
reduced with one gcd.  The pairings are re-checked in every direction
without RatFunc additions: with W_i = T_i prod_{j != i} y_j^(-a_ij) and the
stored c_j = num_j / den_j, v_i = -log'(W_i / y_i^2) is the polynomial
identity

    (sum_j a_ij num_j prod_{k != j} den_k) W_i y_i
        = (2 y_i' W_i - W_i' y_i) prod_k den_k,

over the j and k with a_ij != 0 and a_ik != 0.  Every term has one factor
from each of {num_j, den_j} (for each linked j), {W_i, W_i'} and
{y_i, y_i'}, so the identity is decided by the identity route of
`exactalg`, at one x = 2^k above the bound the same sum gives on 1-norms,
without expanding a product.

Deforming in direction i adds a rational Riccati solution g to c_i; the
only such g are logarithmic derivatives of descendant ratios, which is
what ties opers to the reproduction procedure.

`TwistedFunc` holds a value of the explicit solutions' coefficient field
as one term: a rational function times one formal monomial T^q in the
T_l^(1/d), d the Cartan determinant, as in the solution theorem.  The
twist q is canonicalized to [0, 1)^r with integer parts folded into the
rational coefficient, which makes the relation (T^(1/d))^d = T hold
definitionally; no branch is ever evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .exactalg import Poly, RatFunc, _identity_holds, log_derivative
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

    c_j = log'(reduced y_j), one reduced RatFunc per coordinate; the
    defining pairing identity is re-verified in every direction before
    returning.
    """
    r = p.rank
    coords = tuple(_h_coordinate(y[j], p.T, p.cartan.b[j]) for j in range(r))
    for i in range(1, r + 1):
        # the cross-multiplied pairing identity of the module docstring
        links = [(a, coords[j]) for j, a in enumerate(p.cartan.a[i - 1]) if a]
        W, yi = wronskian_rhs(y, i, p), y[i - 1]
        groups = [[c.num, c.den] for _, c in links] + [[W, W.derivative()], [yi, yi.derivative()]]
        if not _identity_holds(partial(_pairing_residual, [a for a, _ in links]), groups):
            raise AssertionError(f"oper pairing invariant failed in direction {i}")
    return MiuraOper(dual=langlands_dual(p.cartan), h_coords=coords, provenance=(y, p))


def _pairing_residual(a: list[int], *groups: list) -> list:
    """[(sum_j a_j num_j prod_{k != j} den_k) W y_i - (2 y_i' W - W' y_i) prod_k den_k]
    from the groups [num_k, den_k] of the linked coordinates, [W, W'] and
    [y_i, y_i'], on Poly factors or their values in `_identity_holds`."""
    *links, (W, dW), (yi, dyi) = groups
    dens = [den for _, den in links]
    lhs = sum(a_j * num * prod(dens[:j] + dens[j + 1 :]) for j, (a_j, (num, _)) in enumerate(zip(a, links)))
    return [lhs * W * yi - (2 * dyi * W - dW * yi) * prod(dens)]


def _h_coordinate(y_j: Poly, T: Sequence[Poly], b_row: Sequence[Fraction]) -> RatFunc:
    """c_j = y_j'/y_j - sum_l b_jl T_l'/T_l as one reduced RatFunc.

    The numerator is written over the known denominator y_j prod_l T_l
    (over l with b_jl != 0 and deg T_l > 0), so the coordinate takes one
    gcd, not one per term.
    """
    num, den = y_j.derivative(), y_j
    for t, b in zip(T, b_row):
        if b and t.degree() > 0:
            num, den = num * t - t.derivative() * den * b, den * t
    return RatFunc(num, den)


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
    """coeff * T^q: one rational function times one fractional power of the T_l.

    The twist q lives in (1/d)Z^r and is stored canonically in [0, 1)^r, the
    integer parts folded into coeff; nodes with T_l = 1 always carry
    exponent 0.  Zero has coeff 0 and q = 0 and adds to a value of any twist;
    adding nonzero values of different twists raises ValueError.  The
    constructor takes q already canonical; `term` folds a raw exponent vector.
    """

    __slots__ = ("ctx", "q", "coeff")

    def __init__(self, ctx: TwistContext, q: ExpVec, coeff: RatFunc):
        self.ctx = ctx
        self.coeff = coeff
        self.q = (Fraction(0),) * ctx.rank if coeff.is_zero() else tuple(q)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx: TwistContext) -> "TwistedFunc":
        return cls.from_rat(ctx, 0)

    @classmethod
    def one(cls, ctx: TwistContext) -> "TwistedFunc":
        return cls.from_rat(ctx, 1)

    @classmethod
    def from_rat(cls, ctx: TwistContext, f: Union[RatFunc, Poly, int, Fraction]) -> "TwistedFunc":
        return cls(ctx, (Fraction(0),) * ctx.rank, f if isinstance(f, RatFunc) else RatFunc(f))

    @classmethod
    def term(cls, ctx: TwistContext, coeff: Union[RatFunc, Poly], exponents: Sequence) -> "TwistedFunc":
        q, up, down = _fold(ctx, tuple(Fraction(e) for e in exponents))
        return cls(ctx, q, RatFunc(up, down) * coeff)

    @classmethod
    def t_power(cls, ctx: TwistContext, l: int, exponent) -> "TwistedFunc":
        """T_l ^ exponent (1-based node index)."""
        return cls.term(ctx, RatFunc.one(), [exponent if k == l - 1 else 0 for k in range(ctx.rank)])

    # -- arithmetic --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def _check(self, other: "TwistedFunc") -> None:
        if self.ctx != other.ctx:
            raise ValueError("twisted functions from different contexts")

    def __add__(self, other: "TwistedFunc") -> "TwistedFunc":
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.q != other.q:
            raise ValueError(f"cannot add twists {self.q} and {other.q}")
        return TwistedFunc(self.ctx, self.q, self.coeff + other.coeff)

    def __neg__(self) -> "TwistedFunc":
        return TwistedFunc(self.ctx, self.q, -self.coeff)

    def __sub__(self, other: "TwistedFunc") -> "TwistedFunc":
        return self + (-other)

    def __mul__(self, other: Union["TwistedFunc", RatFunc, Poly, int, Fraction]) -> "TwistedFunc":
        if not isinstance(other, TwistedFunc):
            other = TwistedFunc.from_rat(self.ctx, other)
        self._check(other)
        return TwistedFunc.term(self.ctx, self.coeff * other.coeff, [a + b for a, b in zip(self.q, other.q)])

    __rmul__ = __mul__

    def __pow__(self, n: Union[int, Fraction]) -> "TwistedFunc":
        """Any integer power; a rational power only of a pure T-monomial.

        The twist is multiplied by n and folded, so it must stay in (1/d)Z.
        """
        n = Fraction(n)
        if n.denominator == 1:
            coeff = self.coeff ** int(n)  # raises ZeroDivisionError for 0 ** -k
        elif self.coeff == 1:
            coeff = self.coeff
        else:
            raise ValueError("rational powers exist only for pure T-monomials")
        return TwistedFunc.term(self.ctx, coeff, [e * n for e in self.q])

    def derivative(self) -> "TwistedFunc":
        """(f T^q)' = (f' + f sum q_l T_l'/T_l) T^q."""
        f = self.coeff
        coeff = f.derivative()
        for T, e in zip(self.ctx.T, self.q):
            if e != 0:
                coeff = coeff + f * e * log_derivative(RatFunc(T))
        return TwistedFunc(self.ctx, self.q, coeff)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedFunc):
            return NotImplemented
        return self.ctx == other.ctx and self.q == other.q and self.coeff == other.coeff

    def __hash__(self) -> int:
        return hash((self.ctx, self.q, self.coeff))

    def __repr__(self) -> str:
        if self.is_zero():
            return "TwistedFunc(0)"
        mono = " ".join(f"T_{l + 1}^{e}" for l, e in enumerate(self.q) if e != 0)
        return f"TwistedFunc(({self.coeff})" + (f" {mono}" if mono else "") + ")"


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


def _canonical(ctx: TwistContext, q: ExpVec) -> bool:
    """True iff `_fold` returns q as it is, with up = down = 1: q is in
    (1/d)Z^r and [0, 1)^r, and 0 at every node with T_l = 1."""
    return all(
        0 <= e < 1 and (e * ctx.d).denominator == 1 and (not e or ctx.T[l].degree() > 0) for l, e in enumerate(q)
    )


def twisted_wronskian(u: TwistedFunc, v: TwistedFunc) -> TwistedFunc:
    return u.derivative() * v - u * v.derivative()


def twisted_proportional(u: TwistedFunc, v: TwistedFunc) -> bool:
    """u = lambda v for a nonzero scalar lambda: the same twist and a constant ratio."""
    if u.is_zero() or v.is_zero():
        return u.is_zero() and v.is_zero()
    return u.q == v.q and (u.coeff / v.coeff).is_constant()


# ---------------------------------------------------------------------------
# Reduced tuples and the reduced Wronskian relations
# ---------------------------------------------------------------------------


def reduced_tuple(y: PolyTuple, p: ProblemData, ctx: Optional[TwistContext] = None) -> list[TwistedFunc]:
    """reduced y_i = y_i prod_l T_l^(-b_il), as twisted functions."""
    if ctx is None:
        ctx = twist_context(p)
    return [TwistedFunc.term(ctx, RatFunc(y[i]), [-b for b in p.cartan.b[i]]) for i in range(p.rank)]


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
        for j, a_ij in enumerate(p.cartan.a[i - 1]):
            if j != i - 1 and a_ij:
                rhs = rhs * prev[j] ** -a_ij
        if not twisted_proportional(lhs, rhs):
            return ReducedCheck(False, step)
        prev = current
    return ReducedCheck(True, None)
