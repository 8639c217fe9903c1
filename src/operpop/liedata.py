"""Cartan data for the finite simple types and Weyl-group bookkeeping.

Conventions (fixed once, used everywhere):

* Bourbaki node numbering; in type B the last simple root is short, in
  type C it is long, in type G the first is short.
* The Cartan matrix is indexed so that a[i][j] is the pairing of the j-th
  simple root against the i-th simple coroot.  With that convention the
  symmetrizers d satisfy diag(d) @ a symmetric, and the bilinear form on
  simple roots is d[i] * a[i][j].
* Weights live in coroot-pairing coordinates: a weight is the tuple of its
  pairings with the simple coroots.  Weyl elements are carried as words in
  the generating reflections; two words are compared through their action
  on rho = (1, ..., 1).
* One breadth-first orbit walk on integer coordinates serves W (the orbit
  of rho), the cell table (the shifted orbit of the base degrees) and the
  population exploration, whose step descends and returns None, no edge,
  when the descent fails.  Both orbits are free, so each point is reached
  once, by a shortest word, and both walks yield the same words in the
  same order.  The length of an element is the number of simple descents
  (reflect in any node with a negative coordinate) that bring its image of
  rho back to rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from typing import Callable, Iterator, Sequence

Weight = tuple[Fraction, ...]
WeylWord = Sequence[int]


class CellError(ValueError):
    """A degree-vector / Weyl-word combination that labels no cell."""


class CartanError(ValueError):
    """A family letter and rank that name no finite simple type."""


@dataclass(frozen=True)
class CartanData:
    family: str
    rank: int
    a: tuple[tuple[int, ...], ...]
    d_sym: tuple[int, ...]
    b: tuple[tuple[Fraction, ...], ...]
    det_d: int

    def __post_init__(self):
        r = self.rank
        for i in range(r):
            if self.a[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(r):
                if i != j and self.a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (self.a[i][j] == 0) != (self.a[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
                if self.d_sym[i] * self.a[i][j] != self.d_sym[j] * self.a[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")
        for i in range(r):
            row = [(k, a_ik) for k, a_ik in enumerate(self.a[i]) if a_ik]  # at most 4 nonzero
            for j in range(r):
                if sum(a_ik * self.b[k][j] for k, a_ik in row) != (1 if i == j else 0):
                    raise ValueError("b is not the inverse of a")

    def bilinear(self, i: int, j: int) -> Fraction:
        """(alpha_i, alpha_j) = d_i a_{i,j} (1-based node indices)."""
        return Fraction(self.d_sym[i - 1] * self.a[i - 1][j - 1])


def _chain(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _cartan_matrix(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    if family == "A":
        if rank < 1:
            raise CartanError("A_r needs r >= 1")
        return _chain(rank), [1] * rank
    if family == "B":
        if rank < 2:
            raise CartanError("B_r needs r >= 2")
        a = _chain(rank)
        a[rank - 1][rank - 2] = -2
        return a, [2] * (rank - 1) + [1]
    if family == "C":
        if rank < 2:
            raise CartanError("C_r needs r >= 2")
        a = _chain(rank)
        a[rank - 2][rank - 1] = -2
        return a, [1] * (rank - 1) + [2]
    if family == "D":
        if rank < 3:
            raise CartanError("D_r needs r >= 3")
        a = _chain(rank)
        a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
        return a, [1] * rank
    if family == "E":
        if rank not in (6, 7, 8):
            raise CartanError("E_r needs r in {6, 7, 8}")
        # Bourbaki: chain 1-3-4-5-...-r with node 2 attached to node 4.
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(k, k + 1) for k in range(5, rank)]
        for i, j in edges:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        return a, [1] * rank
    if family == "F":
        if rank != 4:
            raise CartanError("F_4 needs rank 4")
        a = _chain(4)
        a[2][1] = -2  # nodes 1,2 long; 3,4 short
        return a, [2, 2, 1, 1]
    if family == "G":
        if rank != 2:
            raise CartanError("G_2 needs rank 2")
        return [[2, -3], [-1, 2]], [1, 3]
    raise CartanError(f"unknown family {family!r}")


def _invert_integer_matrix(a: Sequence[Sequence[int]]) -> tuple[tuple[tuple[Fraction, ...], ...], int]:
    """(a^-1, det a) by fraction-free Gauss-Jordan elimination of [a | I].

    Step s replaces every row but the pivot row by (p_s row - m_ks pivot row)
    / p_(s-1), an exact integer division (Bareiss 1968), so after the last
    step [a | I] has become [det a * I | adj a].  A finite-type Cartan
    matrix has positive leading principal minors, which are the pivots; the
    first pivot that is not positive rejects a.  One division per entry of
    adj a gives the inverse.
    """
    r = len(a)
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    prev = 1
    for col in range(r):
        pivot_row = m[col]
        p = pivot_row[col]
        if p <= 0:
            raise ValueError("Cartan matrix has a leading minor <= 0 (not finite type)")
        for k in range(r):
            factor = m[k][col]
            if k != col:
                m[k] = [(p * x - factor * y) // prev for x, y in zip(m[k], pivot_row)]
        prev = p
    return tuple(tuple(Fraction(v, prev) for v in row[r:]) for row in m), prev


@cache
def cartan_data(family: str, rank: int) -> CartanData:
    """Cartan matrix, symmetrizers, inverse matrix and determinant, built once per type."""
    a, d = _cartan_matrix(family, rank)
    b, det = _invert_integer_matrix(a)
    return CartanData(
        family=family,
        rank=rank,
        a=tuple(tuple(row) for row in a),
        d_sym=tuple(d),
        b=b,
        det_d=det,
    )


_DUAL_FAMILY = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}


@cache
def langlands_dual(c: CartanData) -> CartanData:
    """The data with transposed Cartan matrix; an involution, built once per type."""
    r = c.rank
    a = tuple(tuple(c.a[j][i] for j in range(r)) for i in range(r))
    m = lcm(*c.d_sym)
    d = tuple(m // di for di in c.d_sym)
    b = tuple(tuple(c.b[j][i] for j in range(r)) for i in range(r))
    return CartanData(family=_DUAL_FAMILY[c.family], rank=r, a=a, d_sym=d, b=b, det_d=c.det_d)


# ---------------------------------------------------------------------------
# Weights and the (shifted) Weyl action
# ---------------------------------------------------------------------------


def weight(coords: Sequence) -> Weight:
    return tuple(Fraction(x) for x in coords)


def is_dominant_integral(w: Weight) -> bool:
    return all(x.denominator == 1 and x >= 0 for x in w)


def reflect(i: int, w: Weight, c: CartanData) -> Weight:
    """Unshifted reflection s_i in coroot coordinates."""
    mi = w[i - 1]
    return tuple(w[j] - mi * c.a[j][i - 1] for j in range(c.rank))


def shifted_reflect(i: int, w: Weight, c: CartanData) -> Weight:
    """s_i . w = s_i(w + rho) - rho, in coordinates m_j - (m_i + 1) a_{j,i}."""
    mi = w[i - 1]
    return tuple(w[j] - (mi + 1) * c.a[j][i - 1] for j in range(c.rank))


def _letters(word: WeylWord, c: CartanData) -> list[int]:
    """The word's letters rightmost first, each checked to be a node index."""
    letters = list(word)[::-1]
    for i in letters:
        if not 1 <= i <= c.rank:
            raise ValueError(f"reflection index {i} out of range for rank {c.rank}")
    return letters


def shifted_action(word: WeylWord, w: Weight, c: CartanData) -> Weight:
    """Apply the word's shifted action, rightmost letter first."""
    out = weight(w)
    for i in _letters(word, c):
        out = shifted_reflect(i, out, c)
    return out


def weyl_action(word: WeylWord, w: Sequence, c: CartanData) -> tuple:
    """Apply the word's linear action, rightmost letter first."""
    out = tuple(w)
    for i in _letters(word, c):
        out = reflect(i, out, c)
    return out


# ---------------------------------------------------------------------------
# The Weyl group through the orbit of rho
# ---------------------------------------------------------------------------


def _rho(c: CartanData) -> tuple[int, ...]:
    return (1,) * c.rank


def weyl_length(word: WeylWord, c: CartanData) -> int:
    """Length of the group element: descents from its image of rho to rho."""
    img = weyl_action(word, _rho(c), c)
    length = 0
    while i := next((k for k, m in enumerate(img, start=1) if m < 0), 0):
        img = reflect(i, img, c)
        length += 1
    return length


def _orbit(start: tuple, step: Callable[[int, tuple], tuple], rank: int) -> Iterator[tuple[tuple, tuple]]:
    """(point, word) over the orbit of `start` under step(i, .), i in 1..rank,
    breadth first: each point once, by a shortest word (letters act on the left).
    A step that returns None is no edge."""
    seen = {start}
    frontier = [(start, ())]
    yield start, ()
    while frontier:
        nxt = []
        for point, word in frontier:
            for i in range(1, rank + 1):
                image = step(i, point)
                if image is not None and image not in seen:
                    seen.add(image)
                    nxt.append((image, (i,) + word))
                    yield nxt[-1]
        frontier = nxt


def weyl_elements(c: CartanData) -> Iterator[tuple[int, ...]]:
    """Shortest reduced words, one per group element, in BFS order."""
    for _, word in _orbit(_rho(c), lambda i, m: reflect(i, m, c), c.rank):
        yield word


def weyl_order(c: CartanData) -> int:
    return sum(1 for _ in weyl_elements(c))


def words_equal(u: WeylWord, v: WeylWord, c: CartanData) -> bool:
    return weyl_action(u, _rho(c), c) == weyl_action(v, _rho(c), c)


# ---------------------------------------------------------------------------
# Degree bookkeeping l^w
# ---------------------------------------------------------------------------


def weight_at_infinity(weights: Sequence[Weight], l: Sequence[int], c: CartanData) -> Weight:
    """Coordinates of sum(weights) - sum_j l_j alpha_j."""
    r = c.rank
    total = [sum((w[i] for w in weights), Fraction(0)) for i in range(r)]
    return tuple(total[i] - sum(Fraction(c.a[i][j] * l[j]) for j in range(r)) for i in range(r))


def degrees_for(word: WeylWord, weights: Sequence[Weight], l: Sequence[int], c: CartanData) -> tuple[int, ...]:
    """Solve w . Lambda_inf = sum(Lambda) - sum l^w_i alpha_i for l^w.

    Raises CellError when the solution is not a nonnegative integer vector.
    """
    r = c.rank
    lam_inf = weight_at_infinity(weights, l, c)
    moved = shifted_action(word, lam_inf, c)
    total = [sum((w[i] for w in weights), Fraction(0)) for i in range(r)]
    rhs = [total[i] - moved[i] for i in range(r)]
    lw = [sum(c.b[i][j] * rhs[j] for j in range(r)) for i in range(r)]
    if any(x.denominator != 1 or x < 0 for x in lw):
        raise CellError(f"word {list(word)} does not label a valid cell (degrees {lw})")
    return tuple(int(x) for x in lw)


def shifted_reflect_degrees(i: int, l: Sequence[int], deg_t: Sequence[int], c: CartanData) -> tuple:
    """l^{s_i w} from l^w: l_i -> deg T_i - sum_{j != i} a_ij l_j + 1 - l_i, in integers.

    `deg_t` is (deg T_1, ..., deg T_r), the column sums of the weights.
    """
    out = list(l)
    out[i - 1] = deg_t[i - 1] + 1 + l[i - 1] - sum(map(mul, c.a[i - 1], l))  # a_ii = 2
    return tuple(out)


def cell_words(l: Sequence[int], weights: Sequence[Weight], c: CartanData) -> Iterator[tuple[tuple, tuple]]:
    """(l^w, w) over W from base degrees l, breadth first, w shortest; a
    negative l^w labels no cell.  Stop early to label only nearby cells."""
    deg_t = [sum(int(w[i]) for w in weights) for i in range(c.rank)]
    return _orbit(tuple(l), lambda i, m: shifted_reflect_degrees(i, m, deg_t, c), c.rank)
