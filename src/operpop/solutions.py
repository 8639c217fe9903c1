"""Matrix realizations of the dual algebras and explicit oper solutions.

The defining representations of sl_m and sp_2r are pinned by explicit
matrix conventions and then validated against the Chevalley relations of
the dual Cartan matrix; nothing downstream depends on the conventions
beyond those identities, because every solution builder re-verifies
D Y = 0 entrywise in the twisted field before returning.

Solution shapes:

* type A: Y = Y_0 * Y_1 ... Y_r with Y_0 the weight/T diagonal and Y_i a
  commuting product of exponentials of nested brackets F_{i,j}, fed by the
  diagonal sequences along [i, i+1, ..., r];
* type B (opers on the sp side): the same shape, with an extra
  half-coefficient factor on [[F_r, F_{i,r-1}], F_{i,r-1}] and trailing
  factors fed by the folded sl_2r diagonal sequences;
* any type: the lowest-weight-vector formula along an arbitrary
  reproduction path.

All diagonal sequences are exactly calibrated: W(prev, new) equals the
relation right-hand side on the nose (see population.calibrated_sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Union

from .exactalg import Poly, RatFunc, log_derivative
from .critical import PolyTuple, ProblemData
from .liedata import cartan_data, langlands_dual
from .miura import MiuraOper, TwistContext, TwistedFunc, miura_from_tuple, twist_context
from .population import ReproductionError, calibrated_sequence


class RepresentationError(ValueError):
    pass


class UnsupportedTypeError(ValueError):
    pass


class VerificationError(AssertionError):
    """D Y != 0 for a constructed solution (convention bug guard)."""


Matrix = tuple[tuple[Fraction, ...], ...]


def zeros(n: int) -> Matrix:
    return tuple((Fraction(0),) * n for _ in range(n))


def eye(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def unit(n: int, i: int, j: int) -> Matrix:
    """Elementary matrix with a 1 in (row i, column j), 1-based."""
    return tuple(
        tuple(Fraction(1 if (r == i - 1 and c == j - 1) else 0) for c in range(n))
        for r in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s) -> Matrix:
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_is_zero(a: Matrix) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


@dataclass(frozen=True)
class MatrixRep:
    """Chevalley generators of the dual algebra in a defining representation."""

    dim: int
    F: tuple[Matrix, ...]
    E: tuple[Matrix, ...]
    H: tuple[Matrix, ...]
    coweights: tuple[Matrix, ...]  # w_j with [w_j, F_i] = -delta_ij F_i
    lowest: int  # 0-based index of the lowest weight vector
    dual_cartan: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.F)


def _validate_rep(rep: MatrixRep) -> None:
    r, n = rep.rank, rep.dim
    C = rep.dual_cartan
    for i in range(r):
        for j in range(r):
            lhs = commutator(rep.E[i], rep.F[j])
            rhs = rep.H[i] if i == j else zeros(n)
            if lhs != rhs:
                raise RepresentationError(f"[E_{i + 1}, F_{j + 1}] violated")
            if commutator(rep.H[i], rep.F[j]) != mat_scale(rep.F[j], -C[i][j]):
                raise RepresentationError(f"[H_{i + 1}, F_{j + 1}] violated")
            if commutator(rep.H[i], rep.E[j]) != mat_scale(rep.E[j], C[i][j]):
                raise RepresentationError(f"[H_{i + 1}, E_{j + 1}] violated")
            if commutator(rep.coweights[j], rep.F[i]) != mat_scale(rep.F[i], -(1 if i == j else 0)):
                raise RepresentationError(f"coweight pairing <alpha_{i + 1}, w_{j + 1}> violated")
    for i in range(r):
        power = rep.F[i]
        for _ in range(n):
            power = mat_mul(power, rep.F[i])
        if not mat_is_zero(power):
            raise RepresentationError(f"F_{i + 1} is not nilpotent")
    if any(row[rep.lowest] != 0 for F in rep.F for row in F):
        # lowest weight vector must be killed by every F_i
        raise RepresentationError("lowest weight vector is not annihilated by n_-")


def rep_standard_sl(m: int) -> MatrixRep:
    """Defining representation of sl_m (dual side of type A_{m-1})."""
    if m < 2:
        raise RepresentationError("sl_m needs m >= 2")
    r = m - 1
    F = tuple(unit(m, i + 1, i) for i in range(1, r + 1))
    E = tuple(transpose(f) for f in F)
    H = tuple(
        mat_sub(unit(m, i, i), unit(m, i + 1, i + 1)) for i in range(1, r + 1)
    )
    c = cartan_data("A", r)
    coweights = _coweights_from(H, c.b)
    rep = MatrixRep(
        dim=m, F=F, E=E, H=H, coweights=coweights, lowest=m - 1,
        dual_cartan=langlands_dual(c).a,
    )
    _validate_rep(rep)
    return rep


def rep_standard_sp(r: int) -> MatrixRep:
    """Defining representation of sp_2r (dual side of type B_r)."""
    if r < 2:
        raise RepresentationError("sp_2r needs r >= 2")
    n = 2 * r
    F = []
    for i in range(1, r):
        F.append(mat_add(unit(n, i + 1, i), unit(n, 2 * r - i + 1, 2 * r - i)))
    F.append(unit(n, r + 1, r))
    F = tuple(F)
    E = tuple(transpose(f) for f in F)
    H = tuple(commutator(E[i], F[i]) for i in range(r))
    b_cart = cartan_data("B", r)
    coweights = _coweights_from(H, b_cart.b)
    rep = MatrixRep(
        dim=n, F=F, E=E, H=H, coweights=coweights, lowest=n - 1,
        dual_cartan=langlands_dual(b_cart).a,
    )
    _validate_rep(rep)
    return rep


def _coweights_from(H: Sequence[Matrix], b) -> tuple[Matrix, ...]:
    """w_j = sum_l b[l][j] H_l (column j of the inverse Cartan matrix)."""
    r = len(H)
    n = len(H[0])
    out = []
    for j in range(r):
        w = zeros(n)
        for l in range(r):
            if b[l][j]:
                w = mat_add(w, mat_scale(H[l], b[l][j]))
        out.append(w)
    return tuple(out)


def nested_bracket(rep: MatrixRep, kind: str, i: int, j: int) -> Matrix:
    """The nested commutators of the solution formulas (1-based indices).

    kind "F":      F_{i,j} = [F_j, [F_{j-1}, ..., [F_{i+1}, F_i] ...]]
    kind "Fstar":  F*_{i,r} = [F_r, F_{i,r-1}] and
                   F*_{i,j} = [F_j, [F_{j+1}, ..., [F_{r-1}, F*_{i,r}] ...]]
    kind "double": [[F_r, F_{i,r-1}], F_{i,r-1}]
    """
    r = rep.rank
    if kind == "F":
        if not 1 <= i <= j <= r:
            raise ValueError(f"F_{{{i},{j}}} out of range")
        m = rep.F[i - 1]
        for k in range(i + 1, j + 1):
            m = commutator(rep.F[k - 1], m)
        return m
    if kind == "Fstar":
        if not 1 <= i < j <= r:
            raise ValueError(f"F*_{{{i},{j}}} out of range")
        m = commutator(rep.F[r - 1], nested_bracket(rep, "F", i, r - 1))
        for k in range(r - 1, j - 1, -1):
            m = commutator(rep.F[k - 1], m)
        return m
    if kind == "double":
        if not 1 <= i <= r - 1:
            raise ValueError(f"double bracket needs 1 <= i <= {r - 1}")
        fir = nested_bracket(rep, "F", i, r - 1)
        return commutator(commutator(rep.F[r - 1], fir), fir)
    raise ValueError(f"unknown bracket kind {kind!r}")


# ---------------------------------------------------------------------------
# Matrices over the twisted field
# ---------------------------------------------------------------------------


class TwistedMatrix:
    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: TwistContext, rows: Sequence[Sequence[TwistedFunc]]):
        self.ctx = ctx
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def identity(cls, ctx: TwistContext, n: int) -> "TwistedMatrix":
        one, zero = TwistedFunc.one(ctx), TwistedFunc.zero(ctx)
        return cls(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar_matrix(cls, ctx: TwistContext, m: Matrix) -> "TwistedMatrix":
        return cls(
            ctx,
            [[TwistedFunc.from_rat(ctx, v) for v in row] for row in m],
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __matmul__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = list(zip(*other.rows))
        zero = TwistedFunc.zero(self.ctx)
        out = []
        for row in self.rows:
            new_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                new_row.append(acc)
            out.append(new_row)
        return TwistedMatrix(self.ctx, out)

    def __add__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        return TwistedMatrix(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def scale(self, coeff: Union[TwistedFunc, RatFunc, Poly, int, Fraction]) -> "TwistedMatrix":
        if not isinstance(coeff, TwistedFunc):
            coeff = TwistedFunc.from_rat(self.ctx, coeff)
        return TwistedMatrix(self.ctx, [[v * coeff for v in row] for row in self.rows])

    def derivative(self) -> "TwistedMatrix":
        return TwistedMatrix(self.ctx, [[v.derivative() for v in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.rows for v in row)

    def column(self, j: int) -> list[TwistedFunc]:
        return [row[j] for row in self.rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TwistedMatrix)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"TwistedMatrix({self.shape[0]}x{self.shape[1]})"


def exp_nilpotent(m: TwistedMatrix) -> TwistedMatrix:
    """Finite exponential sum of a nilpotent twisted matrix."""
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("exponential of a non-square matrix")
    result = TwistedMatrix.identity(m.ctx, n)
    power = m
    k = 1
    factorial = 1
    while not power.is_zero():
        if k > n:
            raise ValueError("matrix is not nilpotent")
        result = result + power.scale(Fraction(1, factorial))
        power = power @ m
        k += 1
        factorial *= k
    return result


def exp_generator(rep_matrix: Matrix, coeff, ctx: TwistContext) -> TwistedMatrix:
    """exp(coeff * M) for a constant nilpotent matrix M."""
    return exp_nilpotent(TwistedMatrix.from_scalar_matrix(ctx, rep_matrix).scale(coeff))


# ---------------------------------------------------------------------------
# Applying opers and building solutions
# ---------------------------------------------------------------------------


def apply_miura(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix) -> TwistedMatrix:
    """Y' + (sum_i F_i + sum_j c_j H_j) Y; identically zero iff D Y = 0."""
    if rep.dim != Y.shape[0]:
        raise ValueError("representation and solution dimensions differ")
    ctx = Y.ctx
    op = zeros(rep.dim)
    for f in rep.F:
        op = mat_add(op, f)
    M = TwistedMatrix.from_scalar_matrix(ctx, op)
    for j, c in enumerate(D.h_coords):
        if not c.is_zero():
            M = M + TwistedMatrix.from_scalar_matrix(ctx, rep.H[j]).scale(c)
    return Y.derivative() + (M @ Y)


def _weight_diagonal(ctx: TwistContext, rep: MatrixRep, entries: Sequence[Poly]) -> TwistedMatrix:
    """prod_j entries_j^(-H_j) T_j^(w_j) as a diagonal twisted matrix."""
    n = rep.dim
    r = rep.rank
    rows = [[TwistedFunc.zero(ctx) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        coeff = RatFunc.one()
        exps = [Fraction(0)] * r
        for j in range(r):
            h = rep.H[j][k][k]
            assert h.denominator == 1
            coeff = coeff * RatFunc(entries[j]) ** (-int(h))
            exps[j] += rep.coweights[j][k][k]
        rows[k][k] = TwistedFunc.term(ctx, coeff, exps)
    return TwistedMatrix(ctx, rows)


def _verify(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix, label: str) -> None:
    residual = apply_miura(D, rep, Y)
    if not residual.is_zero():
        bad = next(
            (i, j, v)
            for i, row in enumerate(residual.rows)
            for j, v in enumerate(row)
            if not v.is_zero()
        )
        raise VerificationError(f"{label}: D Y != 0 at entry {bad[0], bad[1]}: {bad[2]!r}")


def solution_A(y: PolyTuple, p: ProblemData, rep: Optional[MatrixRep] = None) -> TwistedMatrix:
    """The SL(r+1)-valued solution built from the diagonal sequences.

    Verifies D Y = 0 exactly before returning.
    """
    if p.cartan.family != "A":
        raise UnsupportedTypeError("solution_A needs a type A problem")
    r = p.rank
    if rep is None:
        rep = default_rep(p)
    ctx = twist_context(p)
    Y = _weight_diagonal(ctx, rep, y.polys)
    for i in range(1, r + 1):
        steps = calibrated_sequence(y.polys, list(range(i, r + 1)), p)
        for j, step in zip(range(i, r + 1), steps):
            g = RatFunc(step.diagonal, y[j - 1])
            Y = Y @ exp_generator(nested_bracket(rep, "F", i, j), g, ctx)
    _verify(miura_from_tuple(y, p), rep, Y, "solution_A")
    return Y


def fold_to_A(y: PolyTuple, p: ProblemData) -> tuple[PolyTuple, ProblemData]:
    """Palindromic doubling carrying B_r data to A_{2r-1} data."""
    if p.cartan.family != "B":
        raise UnsupportedTypeError("fold_to_A needs a type B problem")
    r = p.rank
    folded = PolyTuple(list(y.polys) + [y.polys[r - 1 - k] for k in range(1, r)])
    weights = []
    for w in p.weights:
        weights.append(tuple(w) + tuple(w[r - 1 - k] for k in range(1, r)))
    pA = ProblemData(cartan=cartan_data("A", 2 * r - 1), weights=tuple(weights), points=p.points)
    return folded, pA


def solution_BC(y: PolyTuple, p: ProblemData, rep: Optional[MatrixRep] = None) -> TwistedMatrix:
    """The Sp(2r)-valued solution for a type B critical tuple.

    Uses both the native diagonal sequences and the folded sl_2r ones;
    verifies D Y = 0 exactly before returning.
    """
    if p.cartan.family != "B":
        raise UnsupportedTypeError("solution_BC needs a type B problem")
    r = p.rank
    if rep is None:
        rep = default_rep(p)
    ctx = twist_context(p)
    u, pA = fold_to_A(y, p)
    Y = _weight_diagonal(ctx, rep, y.polys)
    for i in range(1, r):
        bsteps = calibrated_sequence(y.polys, list(range(i, r + 1)), p)
        asteps = calibrated_sequence(u.polys, list(range(i, 2 * r - i)), pA)
        for t in range(r - i):
            # the folded sequence shares its first r-i diagonal polynomials
            if bsteps[t].diagonal != asteps[t].diagonal:
                raise VerificationError("folded and native diagonal sequences diverge")
        for j in range(i, r):
            g = RatFunc(bsteps[j - i].diagonal, y[j - 1])
            Y = Y @ exp_generator(nested_bracket(rep, "F", i, j), g, ctx)
        g_half = RatFunc(bsteps[r - i].diagonal, y[r - 1]) * Fraction(1, 2)
        Y = Y @ exp_generator(nested_bracket(rep, "double", i, r), g_half, ctx)
        for j in range(r, 2 * r - i):
            g = RatFunc(asteps[j - i].diagonal, y[2 * r - j - 1])
            Y = Y @ exp_generator(nested_bracket(rep, "Fstar", i, 2 * r - j), g, ctx)
    last = calibrated_sequence(y.polys, [r], p)
    Y = Y @ exp_generator(rep.F[r - 1], RatFunc(last[0].diagonal, y[r - 1]), ctx)
    _verify(miura_from_tuple(y, p), rep, Y, "solution_BC")
    return Y


def default_rep(p: ProblemData) -> MatrixRep:
    """The defining representation of the dual algebra, built once per type."""
    return _rep(p.cartan.family, p.rank)


@cache
def _rep(family: str, rank: int) -> MatrixRep:
    if family == "A":
        return rep_standard_sl(rank + 1)
    if family == "B":
        return rep_standard_sp(rank)
    raise UnsupportedTypeError(
        f"no matrix representation implemented for the dual of type {family}_{rank}"
    )


def solution_general(
    y: PolyTuple,
    indices: Sequence[int],
    rep: Optional[MatrixRep],
    p: ProblemData,
    shifts: Optional[Sequence[Fraction]] = None,
) -> list[TwistedFunc]:
    """Lowest-weight-vector solution along an arbitrary reproduction path.

    `shifts` selects a non-canonical associated diagonal sequence (one
    rational shift per step).  Returns the vector of twisted coordinates;
    D_y Y = 0 is verified exactly before returning.
    """
    if rep is None:
        rep = default_rep(p)
    ctx = twist_context(p)
    try:
        steps = calibrated_sequence(y.polys, indices, p, shifts=shifts)
    except ReproductionError as exc:
        raise ReproductionError(f"invalid path {list(indices)}: {exc}") from exc
    left = TwistedMatrix.identity(ctx, rep.dim)
    entries = y.polys
    for step in steps:
        i = step.index
        g = -log_derivative(RatFunc(step.diagonal, entries[i - 1]))
        left = left @ exp_generator(rep.E[i - 1], g, ctx)
        entries = step.entries
    diag = _weight_diagonal(ctx, rep, entries)
    low_col = diag.column(rep.lowest)
    vec = [
        sum((a * b for a, b in zip(row, low_col)), TwistedFunc.zero(ctx))
        for row in left.rows
    ]
    Y = TwistedMatrix(ctx, [[v] for v in vec])
    _verify(miura_from_tuple(y, p), rep, Y, "solution_general")
    return vec
