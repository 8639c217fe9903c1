"""Matrix realizations of the dual algebras and explicit oper solutions.

Every representation is the minuscule representation of the dual algebra
(Bourbaki VIII.7.3): its weights are one Weyl orbit with all coordinates
in {-1, 0, 1}, a basis vector per weight, and each F_i moves a weight mu
with mu_i = 1 to mu - alpha_i.  The dual of every type but E_8, F_4 and
G_2 has one.  It is stored sparsely: each F_i and E_i as its sorted
nonzero (row, col, value) entries, each H_i and each coweight as its
diagonal; the Chevalley relations of the dual Cartan matrix are checked
entry by entry.  A solution is held as Y = T^q * (num_j / den_j)_j:
one twist q in [0, 1)^r shared by all columns, and for each column j a
vector of polynomials num_j over a denominator den_j of its own.

Every factor the builders exponentiate is a root vector of a minuscule
representation (an E_i, an F_i or a nested bracket of them).  Each weight
pairs with each coroot in {-1, 0, 1}, so no root string through a weight
is longer than two and M^2 = 0: exp(g M) = 1 + g M.  Right-multiplying by
it changes only the columns b where M is nonzero, col_b += g sum_a M_ab
col_a, and each changed column is gcd-reduced once; left-multiplying a
column is v += g M v.  The update checks M^2 = 0 and raises otherwise, so
it never returns a wrong product, and no builder forms an n x n product.

Every builder re-verifies D Y = 0 before returning, as one polynomial
identity over Q(x) per column (see apply_miura).  Solution shapes:

* type A: Y = Y_0 * Y_1 ... Y_r with Y_0 the weight/T diagonal and Y_i a
  commuting product of exponentials of nested brackets F_{i,j}, fed by the
  diagonal sequences along [i, i+1, ..., r];
* type B (opers on the sp side): the same shape, with an extra
  half-coefficient factor on [[F_r, F_{i,r-1}], F_{i,r-1}] and trailing
  factors fed by the folded sl_2r diagonal sequences, continued from the
  native ones;
* any type with a minuscule dual representation: the lowest-weight-vector
  formula exp(g_1 E_i1) ... exp(g_k E_ik) v_low along an arbitrary
  reproduction path, the g's computed forward and applied right to left.

All diagonal sequences are exactly calibrated: W(prev, new) equals the
relation right-hand side on the nose (see population.calibrated_sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import mul
from typing import Optional, Sequence

from .exactalg import Poly, RatFunc, log_derivative, poly_gcd
from .critical import PolyTuple, ProblemData
from .liedata import _orbit, cartan_data, langlands_dual, reflect
from .miura import MiuraOper, TwistContext, TwistedFunc, _fold, miura_from_tuple, twist_context
from .population import ReproductionError, calibrated_sequence


class RepresentationError(ValueError):
    pass


class UnsupportedTypeError(ValueError):
    pass


class VerificationError(AssertionError):
    """D Y != 0 for a constructed solution (convention bug guard)."""


Entries = tuple[tuple[int, int, Fraction], ...]  # a constant matrix: its sorted nonzero (row, col, value)


def _product(a: Entries, b: Entries, acc: Optional[dict] = None, sign: int = 1) -> Entries:
    """The nonzero entries of acc + sign a b, where acc maps (row, col) to a value."""
    acc = {} if acc is None else acc
    rows: dict[int, list] = {}
    for k, j, t in b:
        rows.setdefault(k, []).append((j, t))
    for i, k, s in a:
        for j, t in rows.get(k, ()):
            acc[i, j] = acc.get((i, j), 0) + sign * s * t
    return tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))


def _bracket(a: Entries, b: Entries) -> Entries:
    """The nonzero entries of [a, b] = a b - b a."""
    return _product(b, a, {(i, j): v for i, j, v in _product(a, b)}, -1)


@dataclass(frozen=True)
class MatrixRep:
    """Chevalley generators of the dual algebra in a defining representation:
    F_i and E_i as entries, H_i (ints) and the coweights as diagonals."""

    dim: int
    F: tuple[Entries, ...]
    E: tuple[Entries, ...]
    H: tuple[tuple[int, ...], ...]
    coweights: tuple[tuple[Fraction, ...], ...]  # w_j with [w_j, F_i] = -delta_ij F_i
    lowest: int  # 0-based index of the lowest weight vector
    dual_cartan: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.F)

    @cached_property
    def oper_rows(self) -> tuple[tuple[tuple[int, tuple], ...], ...]:
        """Row a of the oper's matrix part: the columns b where sum_i F_i or
        some H_j is nonzero, each with (sum_i F_i[a][b], H_1[a][b], ...)."""
        rows = [{a: (0, *(h[a] for h in self.H))} for a in range(self.dim)]
        for f in self.F:
            for a, b, s in f:
                coeffs = rows[a].get(b, (0,) * (self.rank + 1))
                rows[a][b] = (coeffs[0] + s, *coeffs[1:])
        return tuple(tuple((b, c) for b, c in sorted(row.items()) if any(c)) for row in rows)


def _validate_rep(rep: MatrixRep) -> None:
    """The Chevalley relations of the dual Cartan matrix C, entry by entry: a
    diagonal D brackets an entry (a, b, s) of a matrix to (D_a - D_b) s."""
    r, C = rep.rank, rep.dual_cartan
    for i, (H, w) in enumerate(zip(rep.H, rep.coweights)):
        for j in range(r):
            if any(H[a] - H[b] != -C[i][j] for a, b, _ in rep.F[j]):
                raise RepresentationError(f"[H_{i + 1}, F_{j + 1}] violated")
            if any(H[a] - H[b] != C[i][j] for a, b, _ in rep.E[j]):
                raise RepresentationError(f"[H_{i + 1}, E_{j + 1}] violated")
            if any(w[a] - w[b] != -(1 if i == j else 0) for a, b, _ in rep.F[j]):
                raise RepresentationError(f"coweight pairing <alpha_{j + 1}, w_{i + 1}> violated")
    for i in range(r):
        for j in range(r):
            rhs = tuple((k, k, h) for k, h in enumerate(rep.H[i]) if h) if i == j else ()
            if _bracket(rep.E[i], rep.F[j]) != rhs:
                raise RepresentationError(f"[E_{i + 1}, F_{j + 1}] violated")
        power = rep.F[i]
        for _ in range(rep.dim):  # F^(n+1) = 0 at the latest
            power = _product(power, rep.F[i])
        if power:
            raise RepresentationError(f"F_{i + 1} is not nilpotent")
    if any(b == rep.lowest for F in rep.F for _, b, _ in F):
        # lowest weight vector must be killed by every F_i
        raise RepresentationError("lowest weight vector is not annihilated by n_-")


@cache
def rep_minuscule(family: str, rank: int) -> MatrixRep:
    """The minuscule representation of the dual of type family_rank, built once.

    Its weights are the orbit under the dual Weyl group of the first
    fundamental weight whose orbit keeps every coordinate in {-1, 0, 1},
    and its basis v_mu is that orbit in breadth-first order from the
    highest weight.  F_i v_mu = v_(mu - alpha_i) = v_(s_i mu) if mu_i = 1
    and 0 otherwise, E_i = F_i^T and H_i = diag(mu_i).
    """
    c = cartan_data(family, rank)
    dual = langlands_dual(c)
    for k in range(rank):
        orbit = []
        for mu, _ in _orbit(tuple(int(j == k) for j in range(rank)), lambda i, m: reflect(i, m, dual), rank):
            if any(abs(x) > 1 for x in mu):
                break
            orbit.append(mu)
        else:
            break
    else:
        raise UnsupportedTypeError(f"the dual of type {family}_{rank} has no minuscule representation")
    index = {mu: a for a, mu in enumerate(orbit)}
    F = tuple(
        tuple(sorted((index[reflect(i + 1, mu, dual)], a, 1) for a, mu in enumerate(orbit) if mu[i] == 1))
        for i in range(rank)
    )
    H = tuple(tuple(mu[i] for mu in orbit) for i in range(rank))
    rep = MatrixRep(
        dim=len(orbit), F=F, E=tuple(tuple(sorted((b, a, s) for a, b, s in f)) for f in F), H=H,
        coweights=_coweights_from(H, c.b), lowest=next(a for a, mu in enumerate(orbit) if all(x <= 0 for x in mu)),
        dual_cartan=dual.a,
    )
    _validate_rep(rep)
    return rep


def rep_standard_sl(m: int) -> MatrixRep:
    """Defining representation of sl_m (dual side of type A_{m-1})."""
    if m < 2:
        raise RepresentationError("sl_m needs m >= 2")
    return rep_minuscule("A", m - 1)


def rep_standard_sp(r: int) -> MatrixRep:
    """Defining representation of sp_2r (dual side of type B_r)."""
    if r < 2:
        raise RepresentationError("sp_2r needs r >= 2")
    return rep_minuscule("B", r)


def _coweights_from(H: Sequence[Sequence[int]], b) -> tuple[tuple[Fraction, ...], ...]:
    """The diagonals w_j = sum_l b[l][j] H_l (column j of the inverse Cartan matrix),
    summed over the nonzero H_l[k] of each basis vector k."""
    support = [[(l, h[k]) for l, h in enumerate(H) if h[k]] for k in range(len(H[0]))]
    return tuple(tuple(sum((b[l][j] * v for l, v in nz), Fraction(0)) for nz in support) for j in range(len(H)))


def nested_bracket(rep: MatrixRep, kind: str, i: int, j: int) -> Entries:
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
            m = _bracket(rep.F[k - 1], m)
        return m
    if kind == "Fstar":
        if not 1 <= i < j <= r:
            raise ValueError(f"F*_{{{i},{j}}} out of range")
        m = _bracket(rep.F[r - 1], nested_bracket(rep, "F", i, r - 1))
        for k in range(r - 1, j - 1, -1):
            m = _bracket(rep.F[k - 1], m)
        return m
    if kind == "double":
        if not 1 <= i <= r - 1:
            raise ValueError(f"double bracket needs 1 <= i <= {r - 1}")
        fir = nested_bracket(rep, "F", i, r - 1)
        return _bracket(_bracket(rep.F[r - 1], fir), fir)
    raise ValueError(f"unknown bracket kind {kind!r}")


# ---------------------------------------------------------------------------
# Matrices over the twisted field: one twist, a denominator per column
# ---------------------------------------------------------------------------

Column = tuple[list[Poly], Poly]  # (numerators, denominator)


class TwistedMatrix:
    """T^q times a matrix of rational functions, held column by column.

    Column j is (num_j, den_j): polynomials over a denominator of its own.
    Every column shares the one twist q, canonical in [0, 1)^r;
    construction folds the integer parts of q into the numerators or the
    denominators.  `num` and `den` give the matrix over one common
    denominator, the lcm of the den_j.  Entries are not reduced; `rows` and
    `column` render each one as the twisted function RatFunc(num_ij, den_j)
    * T^q.
    """

    __slots__ = ("ctx", "q", "cols")

    def __init__(self, ctx: TwistContext, q: Sequence, num: Sequence[Sequence[Poly]], den: Poly):
        """T^q num / den, num row by row: every column over the one den."""
        self._set(ctx, q, [(list(col), den) for col in zip(*num)])

    def _set(self, ctx: TwistContext, q: Sequence, cols: list[Column]) -> None:
        self.ctx = ctx
        self.q, up, down = _fold(ctx, tuple(Fraction(e) for e in q))
        if up.degree() > 0:
            cols = [([v * up for v in nums], d) for nums, d in cols]
        if down.degree() > 0:
            cols = [(nums, d * down) for nums, d in cols]
        self.cols = cols

    @classmethod
    def from_columns(cls, ctx: TwistContext, q: Sequence, cols: Sequence[Column]) -> "TwistedMatrix":
        out = cls.__new__(cls)
        out._set(ctx, q, list(cols))
        return out

    @classmethod
    def identity(cls, ctx: TwistContext, n: int) -> "TwistedMatrix":
        num = [[Poly.const(int(i == j)) for j in range(n)] for i in range(n)]
        return cls(ctx, (0,) * ctx.rank, num, Poly.one())

    @property
    def den(self) -> Poly:
        """The common denominator: the lcm of the column denominators."""
        return reduce(_lcm, dict.fromkeys(d for _, d in self.cols))

    @property
    def num(self) -> list[list[Poly]]:
        """The numerators over `den`, row by row."""
        return self._over(self.den)

    def _over(self, L: Poly) -> list[list[Poly]]:
        """The numerators over L, a multiple of every column denominator, row by row."""
        cols = [nums if d == L else [v * (L // d) for v in nums] for nums, d in self.cols]
        return [list(row) for row in zip(*cols)]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cols[0][0]) if self.cols else 0, len(self.cols))

    def __matmul__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        """The product: with self = num / L over the common denominator,
        column j is num @ other.num_j / (L other.den_j), its common factor
        divided out."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        L = self.den
        left = self._over(L)
        cols = [_reduced([_dot(row, nums) for row in left], L * den) for nums, den in other.cols]
        return TwistedMatrix.from_columns(self.ctx, [a + b for a, b in zip(self.q, other.q)], cols)

    def is_zero(self) -> bool:
        return not any(v for nums, _ in self.cols for v in nums)

    def _entry(self, v: Poly, den: Poly) -> TwistedFunc:
        return TwistedFunc(self.ctx, self.q, RatFunc(v, den))

    @property
    def rows(self) -> tuple[tuple[TwistedFunc, ...], ...]:
        return tuple(
            tuple(self._entry(nums[i], den) for nums, den in self.cols) for i in range(self.shape[0])
        )

    def column(self, j: int) -> list[TwistedFunc]:
        nums, den = self.cols[j]
        return [self._entry(v, den) for v in nums]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TwistedMatrix) and self.ctx == other.ctx and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TwistedMatrix({self.shape[0]}x{self.shape[1]})"


def _dot(row: Sequence, col: Sequence) -> Poly:
    """sum_k row_k col_k over Poly and Fraction factors, skipping zeros."""
    return sum((a * b for a, b in zip(row, col) if a and b), Poly.zero())


def _lcm(a: Poly, b: Poly) -> Poly:
    return a * (b // poly_gcd(a, b))


def _reduced(nums: list[Poly], den: Poly) -> Column:
    """nums / den with the common factor of den and every entry divided out
    (the gcd taken with the entries of lowest degree first)."""
    g = den
    for v in sorted((v for v in nums if v), key=Poly.degree):
        if g.degree() == 0:
            break
        g = poly_gcd(g, v)
    if g.degree() > 0:
        nums, den = [v // g for v in nums], den // g
    return nums, den


# ---------------------------------------------------------------------------
# Exponentials of square-zero matrices as column updates
# ---------------------------------------------------------------------------


def _square_zero(M: Entries) -> Entries:
    """The entries of a constant matrix with M^2 = 0, for which
    exp(g M) = 1 + g M; ValueError for any other M."""
    if _product(M, M):
        raise ValueError("M^2 != 0: exp(g M) is not 1 + g M")
    return M


def _plus(target: Column, g: RatFunc, terms: Sequence[tuple[Fraction, Column]]) -> Column:
    """target + g sum_t s_t column_t over den(g) times the product of the
    distinct denominators, gcd-reduced once; target itself when every
    column_t is zero."""
    terms = [(s, (col, den)) for s, (col, den) in terms if any(col)]
    if not terms:
        return target
    dens = list(dict.fromkeys([target[1], *(col[1] for _, col in terms)]))

    def cofactor(den: Poly) -> Poly:
        return reduce(mul, [d for d in dens if d != den], Poly.one())

    lift = cofactor(target[1]) * g.den
    nums = [v * lift for v in target[0]]
    for s, (col, den) in terms:
        lift = cofactor(den) * g.num * s
        nums = [acc + v * lift if v else acc for acc, v in zip(nums, col)]
    return _reduced(nums, reduce(mul, dens, g.den))


def _times_exp(columns: Sequence[Column], M: Entries, g: RatFunc) -> list[Column]:
    """The columns of Y exp(g M) for M^2 = 0: Y + g Y M.

    Column b gains g sum_a M_ab column_a of Y and is reduced; the columns
    where M is zero stay as they are.
    """
    sources: dict[int, list[tuple[Fraction, Column]]] = {}
    for a, b, s in _square_zero(M):
        sources.setdefault(b, []).append((s, columns[a]))
    out = list(columns)
    for b, terms in sources.items():
        out[b] = _plus(columns[b], g, terms)
    return out


def _exp_times(M: Entries, g: RatFunc, column: Column) -> Column:
    """exp(g M) v = v + g M v for M^2 = 0 and the column v."""
    nums, den = column
    Mv = [Poly.zero()] * len(nums)
    for a, b, s in _square_zero(M):
        if nums[b]:
            Mv[a] = Mv[a] + nums[b] * s
    return _plus(column, g, [(Fraction(1), (Mv, den))])


def exp_generator(M: Entries, g: RatFunc, ctx: TwistContext, n: int) -> TwistedMatrix:
    """exp(g M) = sum_k g^k M^k / k! for a constant nilpotent n x n matrix M.

    With g = a/b and M^(m+1) = 0 this is (sum_k a^k b^(m-k) M^k / k!) / b^m,
    built from the entries of the constant matrices M^k / k!.
    """
    powers = [tuple((k, k, 1) for k in range(n))]  # M^k / k!, up to the first zero power
    while powers[-1]:
        if len(powers) > n:
            raise ValueError("matrix is not nilpotent")
        powers.append(tuple((a, b, Fraction(s, len(powers))) for a, b, s in _product(powers[-1], M)))
    m = len(powers) - 2
    num = [[Poly.zero()] * n for _ in range(n)]
    for k, P in enumerate(powers[:-1]):
        scalar = g.num**k * g.den ** (m - k)
        for a, b, s in P:
            num[a][b] = num[a][b] + scalar * s
    return TwistedMatrix(ctx, (0,) * ctx.rank, num, g.den**m)


# ---------------------------------------------------------------------------
# Applying opers and building solutions
# ---------------------------------------------------------------------------


def apply_miura(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix) -> TwistedMatrix:
    """Y' + (sum_i F_i + sum_j c_j H_j) Y, which is zero iff D Y = 0.

    For Y = T^q num/den, (T^q)' = lambda T^q with lambda = sum_l q_l T_l'/T_l.
    With L the least common denominator of lambda and the c_j and
    M = sum_i F_i + sum_j c_j H_j, column j of the result is T^q R_j / (L den_j^2)
    with
        R_j = L (num_j' den_j - num_j den_j') + den_j (L lambda + L M) num_j
            = den_j (L num_j' + (L lambda + L M) num_j) - (L den_j') num_j,
    so D Y = 0 is the polynomial identity R_j = 0 for every column.
    L lambda + L M is built once, over the nonzero entries of M.
    """
    if rep.dim != Y.shape[0]:
        raise ValueError("representation and solution dimensions differ")
    T, q = Y.ctx.T, Y.q
    L = reduce(_lcm, [T[l] for l, e in enumerate(q) if e] + [c.den for c in D.h_coords], Poly.one())
    L_lambda = sum((T[l].derivative() * (L // T[l]) * e for l, e in enumerate(q) if e), Poly.zero())
    scalars = [L] + [c.num * (L // c.den) for c in D.h_coords]
    # row a of L lambda + L M, as (b, entry) over the nonzero entries
    LM = []
    for a, row in enumerate(rep.oper_rows):
        entries = {b: _dot(scalars, coeffs) for b, coeffs in row}
        if L_lambda:
            entries[a] = entries.get(a, Poly.zero()) + L_lambda
        LM.append([(b, lm) for b, lm in entries.items() if lm])
    columns = []
    for nums, den in Y.cols:
        L_dden = L * den.derivative()
        R = [
            den * (L * v.derivative() + sum((lm * nums[b] for b, lm in lm_row if nums[b]), Poly.zero())) - L_dden * v
            for v, lm_row in zip(nums, LM)
        ]
        columns.append((R, L * den * den))
    return TwistedMatrix.from_columns(Y.ctx, q, columns)


def _weight_diagonal(ctx: TwistContext, rep: MatrixRep, entries: Sequence[Poly]) -> TwistedMatrix:
    """prod_j entries_j^(-H_j) T_j^(w_j) as T^q diag(num_k / den_k).

    The rows' twists differ by integers (weights of a representation differ
    by roots), so they fold to one q; rows that do not raise.
    """
    n = rep.dim
    rows = [_fold(ctx, tuple(w[k] for w in rep.coweights)) for k in range(n)]
    q = rows[0][0]
    nums, dens = [], []
    for k, (row_q, up, down) in enumerate(rows):
        if row_q != q:
            raise ValueError(f"row {k} of the weight diagonal has twist {row_q}, not {q}")
        for entry, H in zip(entries, rep.H):
            if H[k] < 0:
                up = up * entry ** -H[k]
            elif H[k] > 0:
                down = down * entry ** H[k]
        nums.append(up)
        dens.append(down)
    zero = Poly.zero()
    cols = [([zero] * k + [nums[k]] + [zero] * (n - 1 - k), dens[k]) for k in range(n)]
    return TwistedMatrix.from_columns(ctx, q, cols)


def _verify(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix, label: str) -> None:
    R = apply_miura(D, rep, Y)
    bad = [(i, j) for j, (nums, _) in enumerate(R.cols) for i, v in enumerate(nums) if v]
    if bad:
        i, j = bad[0]
        raise VerificationError(f"{label}: D Y != 0 at entry {i, j}: {R.column(j)[i]!r}")


def solution_A(y: PolyTuple, p: ProblemData) -> TwistedMatrix:
    """The SL(r+1)-valued solution built from the diagonal sequences.

    Each factor exp(g F_{i,j}) is 1 + g F_{i,j}, applied as a column
    update.  Verifies D Y = 0 exactly before returning.
    """
    if p.cartan.family != "A":
        raise UnsupportedTypeError("solution_A needs a type A problem")
    r = p.rank
    rep = default_rep(p)
    D = miura_from_tuple(y, p)
    ctx = twist_context(p)
    W = _weight_diagonal(ctx, rep, y.polys)
    columns = W.cols
    for i in range(1, r + 1):
        steps = calibrated_sequence(y.polys, list(range(i, r + 1)), p)
        for j, step in zip(range(i, r + 1), steps):
            g = RatFunc(step.diagonal, y[j - 1])
            columns = _times_exp(columns, nested_bracket(rep, "F", i, j), g)
    Y = TwistedMatrix.from_columns(ctx, W.q, columns)
    _verify(D, rep, Y, "solution_A")
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


def solution_BC(y: PolyTuple, p: ProblemData) -> TwistedMatrix:
    """The Sp(2r)-valued solution for a type B critical tuple.

    Uses the native diagonal sequences and the folded sl_2r ones continued
    from them; each factor exp(g M) is 1 + g M, applied as a column
    update.  Verifies D Y = 0 exactly before returning.
    """
    if p.cartan.family != "B":
        raise UnsupportedTypeError("solution_BC needs a type B problem")
    r = p.rank
    rep = default_rep(p)
    D = miura_from_tuple(y, p)
    ctx = twist_context(p)
    u, pA = fold_to_A(y, p)
    W = _weight_diagonal(ctx, rep, y.polys)
    columns = W.cols
    for i in range(1, r):
        bsteps = calibrated_sequence(y.polys, list(range(i, r + 1)), p)
        # on nodes i..r-1 the folded relations are the native ones and the
        # mirror entries are untouched: continue the folded sequence from there
        asteps = calibrated_sequence(bsteps[r - i - 1].entries + u.polys[r:], list(range(r, 2 * r - i)), pA)
        for j in range(i, r):
            g = RatFunc(bsteps[j - i].diagonal, y[j - 1])
            columns = _times_exp(columns, nested_bracket(rep, "F", i, j), g)
        g_half = RatFunc(bsteps[r - i].diagonal, y[r - 1]) * Fraction(1, 2)
        columns = _times_exp(columns, nested_bracket(rep, "double", i, r), g_half)
        for j in range(r, 2 * r - i):
            g = RatFunc(asteps[j - r].diagonal, y[2 * r - j - 1])
            columns = _times_exp(columns, nested_bracket(rep, "Fstar", i, 2 * r - j), g)
    last = calibrated_sequence(y.polys, [r], p)
    columns = _times_exp(columns, rep.F[r - 1], RatFunc(last[0].diagonal, y[r - 1]))
    Y = TwistedMatrix.from_columns(ctx, W.q, columns)
    _verify(D, rep, Y, "solution_BC")
    return Y


def default_rep(p: ProblemData) -> MatrixRep:
    """The minuscule representation of the dual algebra, built once per type."""
    return rep_minuscule(p.cartan.family, p.rank)


def solution_general(
    y: PolyTuple,
    indices: Sequence[int],
    p: ProblemData,
    shifts: Optional[Sequence[Fraction]] = None,
) -> list[TwistedFunc]:
    """Lowest-weight-vector solution along an arbitrary reproduction path.

    `shifts` selects a non-canonical associated diagonal sequence (one
    rational shift per step).  Returns the vector of twisted coordinates;
    D_y Y = 0 is verified exactly before returning.
    """
    D = miura_from_tuple(y, p)  # before the rep, so a type without one still checks its pairings
    rep = default_rep(p)
    ctx = twist_context(p)
    try:
        steps = calibrated_sequence(y.polys, indices, p, shifts=shifts)
    except ReproductionError as exc:
        raise ReproductionError(f"invalid path {list(indices)}: {exc}") from exc
    gs, entries = [], y.polys
    for step in steps:
        i = step.index
        gs.append((rep.E[i - 1], -log_derivative(RatFunc(step.diagonal, entries[i - 1]))))
        entries = step.entries
    diag = _weight_diagonal(ctx, rep, entries)
    column = diag.cols[rep.lowest]
    for E, g in reversed(gs):  # exp(g_1 E_1) ... exp(g_k E_k) v, right to left
        column = _exp_times(E, g, column)
    Y = TwistedMatrix.from_columns(ctx, diag.q, [column])
    _verify(D, rep, Y, "solution_general")
    return Y.column(0)
