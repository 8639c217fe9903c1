"""Matrix realizations of the dual algebras and explicit oper solutions.

Every representation is the minuscule representation of the dual algebra
(Bourbaki VIII.7.3): its weights are one Weyl orbit with all coordinates
in {-1, 0, 1}, a basis vector per weight, and each F_i moves a weight mu
with mu_i = 1 to mu - alpha_i.  The dual of every type but E_8, F_4 and
G_2 has one.  It is stored sparsely: each F_i and E_i as its sorted
nonzero (row, col, value) entries, each H_i and each coweight as its
diagonal; the Chevalley relations of the dual Cartan matrix are checked
entry by entry.  A solution is held as Y = T^q * (Y_ij): one twist q in
[0, 1)^r shared by all columns, and each entry Y_ij one reduced RatFunc,
reduced once when it is built.

Every factor the builders exponentiate is a root vector of a minuscule
representation (an E_i, an F_i or a nested bracket of them).  Each weight
pairs with each coroot in {-1, 0, 1}, so no root string through a weight
is longer than two and M^2 = 0: exp(g M) = 1 + g M.  Every builder forms
each column as such factors applied from the left to one column, and
left-multiplying a column changes only v_a += g M_ab v_b with M_ab and v_b
nonzero.  The update checks M^2 = 0 and raises otherwise, so it never
returns a wrong product, and no builder forms an n x n product.

Every builder re-verifies D Y = 0 before returning: with column j over
the monic lcm den_j of its entries' denominators, it is the polynomial
identity R_ij = 0 for every entry (see apply_miura).  With L the product
of the distinct denominators d_s of lambda's terms and of the c_j, every
term of R_ij has one factor from each of {den_j, den_j'}, {num_ij, num_ij',
num_bj} and, for each s, {d_s, the numerators over d_s}.  So `_verify`
decides it by the identity route of `exactalg`: one integer value at
x = 2^k per factor and a few big-integer products per entry, 2^k above
the bound that the same residual gives on 1-norms.  The residual
polynomials are expanded only after a failure, to name the first nonzero
entry.  Solution shapes:

* any type with a minuscule dual representation: the lowest-weight-vector
  formula exp(g_1 E_i1) ... exp(g_k E_ik) v_low along an arbitrary
  reproduction path, the g's computed forward and applied right to left;
* type A: that formula along [i, i+1, ..., r] is column i-1, i = 1..r+1;
* type B (opers on the sp side): Y = Y_0 * Y_1 ... Y_r with Y_0 the
  weight/T diagonal and Y_i a commuting product of exponentials of nested
  brackets F_{i,j} fed by the diagonal sequences along [i, ..., r], an
  extra half-coefficient factor on [[F_r, F_{i,r-1}], F_{i,r-1}] and
  trailing factors fed by the folded sl_2r diagonal sequences, continued
  from the native ones; column k is Y_1 ... Y_r e_k, its factors applied
  right to left, with the entries of Y_0 multiplied in last.

All diagonal sequences are exactly calibrated (population.calibrated_sequence):
W(prev, new) = rhs on the nose, so g = -log'(new / prev) = rhs / (prev new).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import prod
from typing import Optional, Sequence

from .exactalg import Poly, RatFunc, _exact_quotient, _gcd_parts, _identity_holds
from .critical import PolyTuple, ProblemData
from .liedata import _orbit, cartan_data, langlands_dual, reflect
from .miura import MiuraOper, TwistContext, TwistedFunc, _canonical, _fold, miura_from_tuple, twist_context
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
    diagonal D brackets an entry (a, b, s) of a matrix to (D_a - D_b) s.

    Each F_i is nilpotent with no check of its own: [H_i, F_i] = -2 F_i
    makes every entry of F_i lower the H_i eigenvalue by 2, and a
    finite-dimensional space has finitely many eigenvalues."""
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
# Matrices over the twisted field: one twist, reduced entries
# ---------------------------------------------------------------------------

Column = list[RatFunc]  # the reduced entries of one column


class TwistedMatrix:
    """T^q times a matrix of rational functions: column j is the list of its
    entries, each a reduced RatFunc, and every column shares the one twist
    q, canonical in [0, 1)^r (the constructor folds the integer parts of a q
    that is not canonical yet into the entries).  `rows` and `column` wrap
    each entry as the twisted function Y_ij * T^q, with no further gcd."""

    __slots__ = ("ctx", "q", "cols")

    def __init__(self, ctx: TwistContext, q: Sequence, cols: Sequence[Column]):
        self.ctx, self.q, self.cols = ctx, tuple(Fraction(e) for e in q), list(cols)
        if not _canonical(ctx, self.q):
            self.q, up, down = _fold(ctx, self.q)
            f = RatFunc(up, down)
            self.cols = [[v * f if v else v for v in col] for col in self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cols[0]) if self.cols else 0, len(self.cols))

    def __matmul__(self, other: "TwistedMatrix") -> "TwistedMatrix":
        """The product: column j is sum_k other_kj column_k of self."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = []
        for entries in other.cols:
            out = [RatFunc.zero()] * self.shape[0]
            for b, col in zip(entries, self.cols):
                if b:
                    out = [acc + b * v if v else acc for acc, v in zip(out, col)]
            cols.append(out)
        return TwistedMatrix(self.ctx, [a + b for a, b in zip(self.q, other.q)], cols)

    def is_zero(self) -> bool:
        return not any(v for col in self.cols for v in col)

    @property
    def rows(self) -> tuple[tuple[TwistedFunc, ...], ...]:
        return tuple(zip(*map(self.column, range(len(self.cols)))))

    def column(self, j: int) -> list[TwistedFunc]:
        return [TwistedFunc(self.ctx, self.q, v) for v in self.cols[j]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TwistedMatrix) and self.ctx == other.ctx and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TwistedMatrix({self.shape[0]}x{self.shape[1]})"


def _over_one_denominator(col: Column) -> tuple[list[Poly], Poly]:
    """The entries of a column as numerators over den, the monic lcm of
    their denominators: den gains the cofactor den_i / gcd(den, den_i) of
    each entry, and numerator i is num_i (den / den_i)."""
    den = Poly.one()
    for v in col:
        if v.den != den and v.den.degree() > 0:
            den = den * _gcd_parts(den, v.den)[2]
    return [v.num if v.den == den else v.num * _exact_quotient(den, v.den) for v in col], den


# ---------------------------------------------------------------------------
# Exponentials of square-zero matrices as entry updates
# ---------------------------------------------------------------------------


def _square_zero(M: Entries) -> Entries:
    """The entries of a constant matrix with M^2 = 0, for which
    exp(g M) = 1 + g M; ValueError for any other M."""
    if _product(M, M):
        raise ValueError("M^2 != 0: exp(g M) is not 1 + g M")
    return M


def _exp_times(M: Entries, g: RatFunc, column: Column) -> Column:
    """exp(g M) v = v + g M v for M^2 = 0 and the column v: each entry
    (a, b, s) of M with v_b nonzero adds g s v_b to v_a."""
    out = list(column)
    for a, b, s in _square_zero(M):
        if column[b]:
            out[a] = out[a] + (g if s == 1 else g * s) * column[b]
    return out


def exp_generator(M: Entries, g: RatFunc, ctx: TwistContext, n: int) -> TwistedMatrix:
    """exp(g M) = sum_k g^k M^k / k! for a constant nilpotent n x n matrix M,
    entry by entry from the constant matrices M^k / k!."""
    powers = [tuple((k, k, 1) for k in range(n))]  # M^k / k!, up to the first zero power
    while powers[-1]:
        if len(powers) > n:
            raise ValueError("matrix is not nilpotent")
        powers.append(tuple((a, b, Fraction(s, len(powers))) for a, b, s in _product(powers[-1], M)))
    cols = [[RatFunc.zero()] * n for _ in range(n)]
    for k, P in enumerate(powers[:-1]):
        gk = g**k
        for a, b, s in P:
            cols[b][a] = cols[b][a] + gk * s
    return TwistedMatrix(ctx, (0,) * ctx.rank, cols)


# ---------------------------------------------------------------------------
# Applying opers and building solutions
# ---------------------------------------------------------------------------


def apply_miura(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix) -> TwistedMatrix:
    """Y' + (sum_i F_i + sum_j c_j H_j) Y, which is zero iff D Y = 0.

    With column j of Y as T^q num_j/den_j (`_over_one_denominator`),
    (T^q)' = lambda T^q with lambda = sum_l q_l T_l'/T_l.
    With L the product of the distinct denominators of the terms of lambda
    and of the c_j, and M = sum_i F_i + sum_j c_j H_j, column j of the
    result is T^q R_j / (L den_j^2) with
        R_j = L (num_j' den_j - num_j den_j') + den_j (L lambda + L M) num_j
            = den_j (L num_j' + (L lambda + L M) num_j) - (L den_j') num_j,
    so D Y = 0 is the polynomial identity R_j = 0 for every column
    (`_residuals`, which `_verify` decides without expanding it).
    """
    groups, layout = _residual_groups(D, rep, Y)
    R = _residuals(rep.oper_rows, layout, *groups)
    L, n = prod(g[0] for g in groups[2:]), rep.dim
    cols = [[RatFunc(v, L * den * den) for v in R[n * j : n * j + n]] for j, den in enumerate(groups[0][::2])]
    return TwistedMatrix(Y.ctx, Y.q, cols)


def _residual_groups(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix) -> tuple[list[list[Poly]], tuple]:
    """The Poly factors of `_residuals`, each column over one denominator:
    [den_j, den_j' for each j], [num_j, then num_j' for each j], and one
    group per distinct denominator d_s of the terms of lambda and of the c_j:
    d_s, the q_l T_l' with T_l = d_s and the numerators of the c_j over d_s.
    The layout places each term of lambda and each c_j in its group."""
    if rep.dim != Y.shape[0]:
        raise ValueError("representation and solution dimensions differ")
    columns = [_over_one_denominator(col) for col in Y.cols]
    dens = [x for _, den in columns for x in (den, den.derivative())]
    nums = [x for col, _ in columns for x in [*col, *(v.derivative() for v in col)]]
    terms = [(T, e) for T, e in zip(Y.ctx.T, Y.q) if e]
    denominators = list(dict.fromkeys([T for T, _ in terms] + [c.den for c in D.h_coords]))
    oper = [[d] for d in denominators]

    def place(d: Poly, x) -> tuple[int, int]:
        s = denominators.index(d)
        oper[s].append(x)
        return s, len(oper[s]) - 1

    lam = [place(T, T.derivative() * e) for T, e in terms]
    coords = [place(c.den, c.num) for c in D.h_coords]
    return [dens, nums, *oper], (lam, coords)


def _residuals(rows, layout, dens: list, nums: list, *oper: list) -> list:
    """R_aj = den_j (L num_aj' + sum_b LM_ab num_bj) - (L den_j') num_aj,
    column by column, LM = L lambda + L M built from the groups of
    `_residual_groups`: L = prod_s d_s, and each term of lambda or c_j
    times L is its numerator times the other d_s.  Every term has one factor
    from each group, so it runs on the Poly factors and on their integer
    values in `_identity_holds` alike."""
    lam, coords = layout
    d = [g[0] for g in oper]
    L = prod(d)

    def times_L(s: int, t: int):
        return oper[s][t] * prod(d[:s] + d[s + 1 :])

    scalars = [L] + [times_L(s, t) for s, t in coords]
    L_lambda = [times_L(s, t) for s, t in lam]
    LM = []
    for a, row in enumerate(rows):
        entries = {}
        for b, coeffs in row:
            terms = [c * x for c, x in zip(coeffs, scalars) if c]
            entries[b] = sum(terms[1:], terms[0])
        for x in L_lambda:
            entries[a] = entries[a] + x if a in entries else x
        LM.append(entries)
    n, out = len(rows), []
    for j in range(len(dens) // 2):
        den, dden = dens[2 * j], dens[2 * j + 1]
        col, dcol = nums[2 * n * j : 2 * n * j + n], nums[2 * n * j + n : 2 * n * j + 2 * n]
        L_dden = L * dden
        for v, dv, entries in zip(col, dcol, LM):
            acc = L * dv
            for b, lm in entries.items():
                if col[b]:
                    acc = acc + lm * col[b]
            out.append(den * acc - L_dden * v)
    return out


def _weight_column(rep: MatrixRep, k: int, entries: Sequence[Poly], up: Poly, down: Poly) -> Column:
    """Column k of the weight diagonal, given its row's fold T^(w(k)) = T^q up / down."""
    for entry, H in zip(entries, rep.H):
        if H[k] < 0:
            up = up * entry ** -H[k]
        elif H[k] > 0:
            down = down * entry ** H[k]
    zero = RatFunc.zero()
    return [zero] * k + [RatFunc(up, down)] + [zero] * (rep.dim - 1 - k)


def _weight_diagonal(ctx: TwistContext, rep: MatrixRep, entries: Sequence[Poly]) -> TwistedMatrix:
    """prod_j entries_j^(-H_j) T_j^(w_j) as T^q diag(num_k / den_k).

    The rows' twists differ by integers (weights of a representation differ
    by roots), so they fold to one q; rows that do not raise.
    """
    rows = [_fold(ctx, tuple(w[k] for w in rep.coweights)) for k in range(rep.dim)]
    q = rows[0][0]
    for k, (row_q, _, _) in enumerate(rows):
        if row_q != q:
            raise ValueError(f"row {k} of the weight diagonal has twist {row_q}, not {q}")
    cols = [_weight_column(rep, k, entries, up, down) for k, (_, up, down) in enumerate(rows)]
    return TwistedMatrix(ctx, q, cols)


def _verify(D: MiuraOper, rep: MatrixRep, Y: TwistedMatrix, label: str) -> None:
    """Raise VerificationError unless D Y = 0, decided at one x = 2^k; only a
    failure expands the residual, to name its first nonzero entry."""
    groups, layout = _residual_groups(D, rep, Y)
    if _identity_holds(partial(_residuals, rep.oper_rows, layout), groups):
        return
    R = apply_miura(D, rep, Y)
    i, j = next((i, j) for j, col in enumerate(R.cols) for i, v in enumerate(col) if v)
    raise VerificationError(f"{label}: D Y != 0 at entry {i, j}: {R.column(j)[i]!r}")


def _lowest_weight_columns(
    y: PolyTuple, paths: Sequence[Sequence[int]], p: ProblemData, label: str, shifts: Optional[Sequence] = None
) -> TwistedMatrix:
    """A column exp(g_1 E_i1) ... exp(g_k E_ik) v_low per path i1..ik, v_low the
    weight-diagonal column of the lowest weight at the path's last tuple; the
    columns share the lowest row's twist, and D Y = 0 is verified once for all."""
    D = miura_from_tuple(y, p)  # before the rep, so a type without one still checks its pairings
    rep = rep_minuscule(p.cartan.family, p.rank)
    ctx = twist_context(p)
    q, up, down = _fold(ctx, tuple(w[rep.lowest] for w in rep.coweights))
    columns = []
    for path in paths:
        gs, entries = [], y
        for step in calibrated_sequence(y, path, p, shifts=shifts):
            gs.append((rep.E[step.index - 1], RatFunc(step.rhs, entries[step.index - 1] * step.diagonal)))
            entries = step.entries
        column = _weight_column(rep, rep.lowest, entries, up, down)
        for E, g in reversed(gs):  # exp(g_1 E_1) ... exp(g_k E_k) v, right to left
            column = _exp_times(E, g, column)
        columns.append(column)
    Y = TwistedMatrix(ctx, q, columns)
    _verify(D, rep, Y, label)
    return Y


def solution_A(y: PolyTuple, p: ProblemData) -> TwistedMatrix:
    """The SL(r+1)-valued solution: column i-1 is the lowest-weight-vector
    solution along the path [i, i+1, ..., r], for i = 1..r+1 (the last path
    is empty).  Verifies D Y = 0 exactly before returning.
    """
    if p.cartan.family != "A":
        raise UnsupportedTypeError("solution_A needs a type A problem")
    return _lowest_weight_columns(y, [range(i, p.rank + 1) for i in range(1, p.rank + 2)], p, "solution_A")


def fold_to_A(y: PolyTuple, p: ProblemData) -> tuple[PolyTuple, ProblemData]:
    """Palindromic doubling carrying B_r data to A_{2r-1} data."""
    if p.cartan.family != "B":
        raise UnsupportedTypeError("fold_to_A needs a type B problem")
    r = p.rank
    folded = PolyTuple(list(y) + [y[r - 1 - k] for k in range(1, r)])
    weights = []
    for w in p.weights:
        weights.append(tuple(w) + tuple(w[r - 1 - k] for k in range(1, r)))
    pA = ProblemData(cartan=cartan_data("A", 2 * r - 1), weights=tuple(weights), points=p.points)
    return folded, pA


def solution_BC(y: PolyTuple, p: ProblemData) -> TwistedMatrix:
    """The Sp(2r)-valued solution for a type B critical tuple.

    Uses the native diagonal sequences and the folded sl_2r ones continued
    from them; each factor exp(g M) is 1 + g M, applied to each unit column
    from the left, and the weight diagonal last.  Verifies D Y = 0 exactly
    before returning.
    """
    if p.cartan.family != "B":
        raise UnsupportedTypeError("solution_BC needs a type B problem")
    r = p.rank
    rep = rep_minuscule(p.cartan.family, p.rank)
    D = miura_from_tuple(y, p)
    ctx = twist_context(p)
    u, pA = fold_to_A(y, p)
    factors = []  # (M, g) of each exp(g M) of Y_1 ... Y_r, left to right
    for i in range(1, r):
        bsteps = calibrated_sequence(y, list(range(i, r + 1)), p)
        # on nodes i..r-1 the folded relations are the native ones and the
        # mirror entries are untouched: continue the folded sequence from there
        asteps = calibrated_sequence(bsteps[r - i - 1].entries + u[r:], list(range(r, 2 * r - i)), pA)
        for j in range(i, r):
            factors.append((nested_bracket(rep, "F", i, j), RatFunc(bsteps[j - i].diagonal, y[j - 1])))
        g_half = RatFunc(bsteps[r - i].diagonal, y[r - 1]) * Fraction(1, 2)
        factors.append((nested_bracket(rep, "double", i, r), g_half))
        for j in range(r, 2 * r - i):
            g = RatFunc(asteps[j - r].diagonal, y[2 * r - j - 1])
            factors.append((nested_bracket(rep, "Fstar", i, 2 * r - j), g))
    last = calibrated_sequence(y, [r], p)
    factors.append((rep.F[r - 1], RatFunc(last[0].diagonal, y[r - 1])))
    W = _weight_diagonal(ctx, rep, y)
    columns, zero, one = [], RatFunc.zero(), RatFunc.one()
    for k in range(rep.dim):
        column = [zero] * k + [one] + [zero] * (rep.dim - 1 - k)
        for M, g in reversed(factors):  # exp(g_1 M_1) ... exp(g_m M_m) e_k, right to left
            column = _exp_times(M, g, column)
        columns.append([W.cols[i][i] * v if v else v for i, v in enumerate(column)])
    Y = TwistedMatrix(ctx, W.q, columns)
    _verify(D, rep, Y, "solution_BC")
    return Y


def solution_general(
    y: PolyTuple,
    indices: Sequence[int],
    p: ProblemData,
    shifts: Optional[Sequence[Fraction]] = None,
) -> list[TwistedFunc]:
    """Lowest-weight-vector solution along an arbitrary reproduction path, from
    the column routine that also gives solution_A's columns.

    `shifts` selects a non-canonical associated diagonal sequence (one
    rational shift per step).  Returns the vector of twisted coordinates;
    D_y Y = 0 is verified exactly before returning.
    """
    try:
        Y = _lowest_weight_columns(y, [indices], p, "solution_general", shifts)
    except ReproductionError as exc:
        raise ReproductionError(f"invalid path {list(indices)}: {exc}") from exc
    return Y.column(0)
