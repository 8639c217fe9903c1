"""Problem data, genericity/fertility tests, and exact Bethe residuals.

A problem fixes a finite simple type, dominant integral weights and the
distinct rational points carrying them.  Candidate critical points are
r-tuples of monic polynomials; the exact tests here decide

* genericity (squarefree, coprime to the T-polynomials, coprime across
  linked Dynkin nodes),
* fertility in a direction i: existence of a polynomial solution of
  W(y_i, ~y_i) = T_i prod_{j != i} y_j^(-a_ij), decided by the triangular
  solve `wronskian_partner` (zero residual), never by root finding,

and evaluate the critical-point equations themselves at explicit rational
root configurations.  A small damped-Newton seeder (the only float code in
the package) helps locate configurations numerically; it never feeds the
exact pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .exactalg import Poly, poly_gcd, squarefree, wronskian_partner
from .liedata import CartanData, Weight, cartan_data, is_dominant_integral, weight


class FertilityError(ValueError):
    """Raised when a fertility precondition fails (tuple not generic)."""


class CollisionError(ValueError):
    """Raised when Bethe coordinates collide with each other or a point."""


@dataclass(frozen=True)
class ProblemData:
    """Cartan data plus the weighted points defining T_1..T_r."""

    cartan: CartanData
    weights: tuple[Weight, ...]
    points: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.points):
            raise ValueError("need one point per weight")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        for w in self.weights:
            if len(w) != self.cartan.rank:
                raise ValueError("weight coordinate count must equal the rank")
            if not is_dominant_integral(w):
                raise ValueError(f"weight {w} is not dominant integral")

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def T(self) -> tuple[Poly, ...]:
        """T_1..T_r, built once per problem."""
        return tuple(build_T(self))

    def pairing(self, s: int, i: int) -> Fraction:
        """(Lambda_s, alpha_i) = m_{s,i} d_i (1-based s, i)."""
        return self.weights[s - 1][i - 1] * self.cartan.d_sym[i - 1]


def problem(family: str, rank: int, weights: Sequence[Sequence] = (), points: Sequence = ()) -> ProblemData:
    return ProblemData(
        cartan=cartan_data(family, rank),
        weights=tuple(weight(w) for w in weights),
        points=tuple(Fraction(z) for z in points),
    )


class PolyTuple(tuple):
    """An r-tuple of monic nonzero polynomials (a projective representative)."""

    __slots__ = ()

    def __new__(cls, polys: Sequence[Poly]):
        normalized = []
        for p in polys:
            if p.is_zero():
                raise ValueError("tuple entries must be nonzero")
            normalized.append(p.monic())
        return super().__new__(cls, normalized)

    @classmethod
    def constants(cls, rank: int) -> "PolyTuple":
        return cls([Poly.one()] * rank)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self)

    def replace(self, i: int, p: Poly) -> "PolyTuple":
        """This tuple with entry i (1-based) replaced by p, made monic; the
        other entries are monic already."""
        if p.is_zero():
            raise ValueError("tuple entries must be nonzero")
        polys = list(self)
        polys[i - 1] = p.monic()
        return tuple.__new__(PolyTuple, polys)

    def __repr__(self) -> str:
        return "PolyTuple(" + ", ".join(str(p) for p in self) + ")"


@dataclass(frozen=True)
class BetheConfig:
    """Explicit rational coordinates t_j^(i), grouped by node index i."""

    coordinates: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def of(cls, coords: Sequence[Sequence]) -> "BetheConfig":
        return cls(tuple(tuple(Fraction(t) for t in group) for group in coords))

    def to_tuple(self) -> PolyTuple:
        return PolyTuple([Poly.from_roots(group) for group in self.coordinates])


def build_T(p: ProblemData) -> list[Poly]:
    """T_i(x) = prod_s (x - z_s)^{<Lambda_s, coroot_i>}, expanded."""
    out = []
    for i in range(p.rank):
        t = Poly.one()
        for w, z in zip(p.weights, p.points):
            if w[i]:
                t = t * Poly([-z, 1]) ** int(w[i])
        out.append(t)
    return out


class GenericityReport(NamedTuple):
    ok: bool
    reason: Optional[str]

    def __bool__(self) -> bool:
        return self.ok


def is_generic(y: PolyTuple, p: ProblemData) -> GenericityReport:
    """Squarefree entries, coprime to T_i, coprime across linked nodes."""
    T = p.T
    r = p.rank
    for i in range(r):
        if not squarefree(y[i]):
            return GenericityReport(False, f"y_{i + 1} has a multiple root")
    for i in range(r):
        if poly_gcd(y[i], T[i]).degree() > 0:
            return GenericityReport(False, f"y_{i + 1} shares a root with T_{i + 1}")
    for i in range(r):
        for j in range(i + 1, r):
            if p.cartan.a[i][j] != 0 and poly_gcd(y[i], y[j]).degree() > 0:
                return GenericityReport(False, f"y_{i + 1} and y_{j + 1} share a root on a linked edge")
    return GenericityReport(True, None)


def bethe_residuals(t: BetheConfig, p: ProblemData) -> list[Fraction]:
    """Left-hand sides of the critical-point system, one per coordinate.

    All residuals zero (with the configuration generic) means the
    configuration is a critical point of the master function.
    """
    coords = t.coordinates
    if len(coords) != p.rank:
        raise ValueError("one coordinate group per node required")
    # collision scan first, so errors identify the pair
    flat = [(i + 1, j + 1, v) for i, group in enumerate(coords) for j, v in enumerate(group)]
    for a in range(len(flat)):
        for b in range(a + 1, len(flat)):
            if flat[a][2] == flat[b][2]:
                ia, ja, _ = flat[a]
                ib, jb, _ = flat[b]
                raise CollisionError(
                    f"coordinates t_{ja}^({ia}) and t_{jb}^({ib}) coincide at {flat[a][2]}"
                )
    for i, group in enumerate(coords):
        for j, v in enumerate(group):
            if v in p.points:
                raise CollisionError(f"coordinate t_{j + 1}^({i + 1}) sits on a marked point")

    return _residuals(coords, p, Fraction)


def _residuals(groups: Sequence[Sequence], p: ProblemData, num: type) -> list:
    """The critical-point system at the coordinate groups, one value per
    coordinate, computed in the number type `num` (Fraction or float).

    Raises ZeroDivisionError when a coordinate sits on a point or on
    another coordinate of a linked node.
    """
    z = [num(v) for v in p.points]
    out = []
    for i in range(1, p.rank + 1):
        for j, tij in enumerate(groups[i - 1]):
            acc = num(0)
            for s, zs in enumerate(z, start=1):
                acc -= num(p.pairing(s, i)) / (tij - zs)
            for s in range(1, p.rank + 1):
                ip = num(p.cartan.bilinear(s, i))
                if ip == 0:
                    continue
                for k, tk in enumerate(groups[s - 1]):
                    if s == i and k == j:
                        continue
                    acc += ip / (tij - tk)
            out.append(acc)
    return out


def wronskian_rhs(y: Sequence[Poly], i: int, p: ProblemData) -> Poly:
    """T_i * prod_{j != i} y_j^(-a_ij): the target of the i-th relation.

    T_i is monic, so a constant T_i is 1 and is not multiplied in."""
    T = p.T[i - 1]
    N = T if T.degree() else None
    for j in range(1, p.rank + 1):
        if j == i:
            continue
        e = -p.cartan.a[i - 1][j - 1]
        if e:
            N = y[j - 1] ** e if N is None else N * y[j - 1] ** e
    return T if N is None else N


def fertility_direction(y: PolyTuple, i: int, p: ProblemData) -> Optional[Poly]:
    """Canonical monic ~y_i if direction i is fertile, else None.

    The family of solutions is c1 * u + c2 * y_i with u the Wronskian
    partner of y_i; the canonical member is u itself, fixed by
    (u // y_i)(0) = 0 (zero integration constant), returned monic.
    Postcondition on success: wronskian(y_i, result) is a nonzero constant
    multiple of the relation right-hand side.
    """
    if not squarefree(y[i - 1]):
        raise FertilityError(f"y_{i} has a multiple root; tuple is not generic in direction {i}")
    return canonical_partner(y, i, p)


def canonical_partner(y: PolyTuple, i: int, p: ProblemData) -> Optional[Poly]:
    """`fertility_direction` for a tuple whose y_i is known to be squarefree."""
    u = wronskian_partner(y[i - 1], wronskian_rhs(y, i, p))
    return None if u is None else u.monic()


def is_fertile(y: PolyTuple, p: ProblemData) -> bool:
    """True iff every direction admits a Wronskian partner polynomial."""
    return all(fertility_direction(y, i, p) is not None for i in range(1, p.rank + 1))


# ---------------------------------------------------------------------------
# Float Newton seeder (advisory only; no exact code depends on it)
# ---------------------------------------------------------------------------


class NewtonError(RuntimeError):
    def __init__(self, message: str, last: list[list[float]], residual: float):
        super().__init__(message)
        self.last = last
        self.residual = residual


class NewtonResult(NamedTuple):
    coordinates: list[list[float]]
    residual: float
    iterations: int


def _float_jacobian(flat: list[float], shape: list[int], p: ProblemData):
    import numpy as np

    n = len(flat)
    index = []
    for i, cnt in enumerate(shape):
        index.extend((i + 1, k) for k in range(cnt))
    z = [float(v) for v in p.points]
    J = np.zeros((n, n))
    for row, (i, j) in enumerate(index):
        tij = flat[row]
        for s in range(1, len(z) + 1):
            J[row, row] += float(p.pairing(s, i)) / (tij - z[s - 1]) ** 2
        for col, (s, k) in enumerate(index):
            if col == row:
                continue
            ip = float(p.cartan.bilinear(s, i))
            if ip == 0.0:
                continue
            d = tij - flat[col]
            J[row, row] -= ip / d**2
            J[row, col] += ip / d**2
    return J


def newton_seed(
    p: ProblemData,
    l: Sequence[int],
    start: Sequence[Sequence[float]],
    max_iter: int = 20,
    tol: float = 1e-12,
) -> NewtonResult:
    """Damped Newton iteration on the float residual map.

    Returns the last iterate and its max-norm residual once below `tol`;
    raises NewtonError (carrying the last iterate) on a singular Jacobian
    or when the iteration cap is reached.
    """
    import numpy as np

    shape = [int(v) for v in l]
    if [len(g) for g in start] != shape:
        raise ValueError("start must supply l_i coordinates per node")
    flat = [float(v) for group in start for v in group]

    def unflatten(vec: list[float]) -> list[list[float]]:
        out, pos = [], 0
        for n in shape:
            out.append(list(vec[pos : pos + n]))
            pos += n
        return out

    if not flat:
        return NewtonResult([[] for _ in shape], 0.0, 0)

    try:
        res = _residuals(unflatten(flat), p, float)
    except ZeroDivisionError as exc:
        raise NewtonError(f"start is singular: {exc}", unflatten(flat), float("inf")) from exc
    norm = max(abs(v) for v in res)
    for it in range(1, max_iter + 1):
        if norm < tol:
            return NewtonResult(unflatten(flat), norm, it - 1)
        J = _float_jacobian(flat, shape, p)
        try:
            step = np.linalg.solve(J, -np.asarray(res))
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}", unflatten(flat), norm) from exc
        lam = 1.0
        for _ in range(40):
            cand = [a + lam * b for a, b in zip(flat, step)]
            try:
                cres = _residuals(unflatten(cand), p, float)
            except ZeroDivisionError:
                lam /= 2
                continue
            cnorm = max(abs(v) for v in cres)
            if cnorm < norm:
                flat, res, norm = cand, cres, cnorm
                break
            lam /= 2
        else:
            raise NewtonError("damping failed to reduce the residual", unflatten(flat), norm)
    if norm < tol:
        return NewtonResult(unflatten(flat), norm, max_iter)
    raise NewtonError("iteration cap reached", unflatten(flat), norm)
