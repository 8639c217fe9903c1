"""Reproduction procedures, diagonal sequences, and population exploration.

`descend` realizes one simple reproduction step: the one-parameter family
c1 * ~y_i + c2 * y_i replacing y_i, returned monic.  `reproduce_path`
iterates it and records the diagonal polynomials, checking the Wronskian
relation at every step (up to a nonzero scalar, since tuples are kept as
monic projective representatives).

`calibrated_sequence` produces the same diagonal sequence with exact
scales: each new polynomial d satisfies W(prev_i, d) = T_i * prod
(prev_j)^(-a_ij) on the nose, which is the normalization the explicit
solution formulas require.  It solves through non-squarefree bases
(these legitimately appear when a path revisits a direction) with the
same `wronskian_partner` solve that decides fertility.

`explore` walks the population of a seed by canonical descents, only into
new cells (the shifted reflection s_i predicts where a descent lands), and
keeps one sample tuple per cell, labelled by its shifted Weyl orbit word.
The walk is `liedata._orbit` with a step that descends, so from the
dominant cell, as every constant seed is, its breadth-first words are the
labels.  From any other seed, or once a descent has failed (its edge is
missing, so a cell may be reached by a longer word), the labels come from a
second walk, `cell_words` from the dominant point, stopped once every
reached cell is labelled.
When the canonical member of a family is not generic and the descent
raises the degree, a deterministic scan over small integer parameters picks
a generic member so exploration can continue; on a lowering descent the
canonical member stays, and the child is flagged non-generic.

Genericity of a child is decided from what the descent changed.  Lemma: let
y be generic and let y' be y with y_i replaced by a family member
~y = c1 * u + c2 * y_i (c1 != 0), so that W(y_i, ~y) is a nonzero multiple
of T_i * prod_{j != i} y_j^(-a_ij).  Then y' is generic iff ~y is
squarefree.  Proof: only the conditions that involve entry i can change.
Suppose x0 is a common root of ~y and T_i, or of ~y and a linked y_j.  Then
the right-hand side vanishes at x0, while W(y_i, ~y)(x0) = y_i(x0) ~y'(x0):
y_i(x0) != 0 because y is generic, and ~y'(x0) != 0 because ~y is
squarefree, a contradiction.  So `explore` keeps one flag per cell (is its
sample generic?), runs the full `is_generic` only on the seed and on the
children of a non-generic sample, and descends from a generic sample by
`canonical_partner`, which skips the squarefree test of y_i.

Commuting reflections share their partner solve.  Lemma: for a generic y,
the outcome of the descent in direction i (the canonical entry ~y, whether
it is generic, and the fallback member taken otherwise) depends only on i,
y_i and the y_j with a_ij != 0.  Proof: ~y solves W(y_i, ~y) = T_i
prod_{j != i} y_j^(-a_ij), whose factors are T_i and the linked y_j.  By the
lemma above a member c1 ~y + c2 y_i is generic iff it is squarefree, and
whether the fallback scan runs depends on deg ~y and deg y_i, both fixed by
the key.  So the samples of two cells that agree at i and at the nodes
linked to i descend alike in direction i.  That happens for every a_ik = 0:
s_k changes only y_k, so the i-descents of w and of s_k w, which reach the
cells of s_i w and s_i s_k w = s_k s_i w, are one solve.
`explore` keeps the outcomes of one call by that key; a non-generic sample
is decided by the full `is_generic`, which reads every entry, and is never
looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .exactalg import Poly, _primitive, squarefree, wronskian, wronskian_partner
from .critical import (
    FertilityError,
    PolyTuple,
    ProblemData,
    canonical_partner,
    fertility_direction,
    is_generic,
    wronskian_rhs,
)
from .liedata import CellError, _orbit, cell_words, shifted_reflect_degrees, weight_at_infinity


class ReproductionError(ValueError):
    """A reproduction step could not be carried out."""


Parameter = tuple[Fraction, Fraction]

CANONICAL: Parameter = (Fraction(1), Fraction(0))


@dataclass(frozen=True)
class DescendantFamily:
    """The one-parameter family of descendants of `base` in a direction."""

    base: PolyTuple
    direction: int
    canonical: Poly  # the normalized ~y_i

    def member(self, c1, c2) -> PolyTuple:
        c1, c2 = Fraction(c1), Fraction(c2)
        if c1 == 0 and c2 == 0:
            raise ValueError("projective parameter (0 : 0) is not allowed")
        if c2 == 0:  # c1 * canonical, made monic by `replace`
            return self.base.replace(self.direction, self.canonical)
        new = self.canonical * c1 + self.base[self.direction - 1] * c2
        if new.is_zero():
            raise ValueError("degenerate parameter: member collapses to zero")
        return self.base.replace(self.direction, new)


def descend_family(y: PolyTuple, i: int, p: ProblemData) -> DescendantFamily:
    if (tilde := fertility_direction(y, i, p)) is None:
        raise ReproductionError(f"tuple is not fertile in direction {i}")
    return DescendantFamily(base=y, direction=i, canonical=tilde)


def descend(y: PolyTuple, i: int, c: Parameter, p: ProblemData) -> PolyTuple:
    """One simple reproduction step, monic-normalized."""
    return descend_family(y, i, p).member(*c)


@dataclass(frozen=True)
class ReproductionPath:
    seed: PolyTuple
    indices: tuple[int, ...]
    parameters: tuple[Parameter, ...]
    tuples: tuple[PolyTuple, ...]  # intermediate tuples, one per step
    diagonal: tuple[Poly, ...]  # the new polynomial created at each step

    def last(self) -> PolyTuple:
        return self.tuples[-1] if self.tuples else self.seed


def _proportional(f: Poly, g: Poly) -> bool:
    """f = c g for a nonzero rational c (or both zero)."""
    return _primitive(f) == _primitive(g)


def reproduce_path(
    seed: PolyTuple,
    indices: Sequence[int],
    parameters: Optional[Sequence[Parameter]],
    p: ProblemData,
) -> ReproductionPath:
    """Iterated simple reproduction along `indices`.

    `parameters` gives one projective (c1, c2) per step, or None for the
    canonical (1 : 0) everywhere.  Verifies the step Wronskian relation
    W(y_prev, y_new) ~ T_i * prod y_j^(-a_ij) (up to a nonzero scalar)
    before returning.
    """
    if parameters is None:
        parameters = [CANONICAL] * len(indices)
    parameters = [(Fraction(a), Fraction(b)) for a, b in parameters]
    if len(parameters) != len(indices):
        raise ValueError("one parameter per path index required")
    current = seed
    tuples: list[PolyTuple] = []
    diagonal: list[Poly] = []
    for step, (i, par) in enumerate(zip(indices, parameters), start=1):
        try:
            family = descend_family(current, i, p)
        except (ReproductionError, FertilityError) as exc:
            raise ReproductionError(f"step {step} (direction {i}) failed: {exc}") from exc
        nxt = family.member(*par)
        new_poly = nxt[i - 1]
        rhs = wronskian_rhs(current, i, p)
        if not _proportional(wronskian(current[i - 1], new_poly), rhs):
            raise ReproductionError(f"step {step} (direction {i}) violates the Wronskian relation")
        tuples.append(nxt)
        diagonal.append(new_poly)
        current = nxt
    return ReproductionPath(
        seed=seed,
        indices=tuple(indices),
        parameters=tuple(parameters),
        tuples=tuple(tuples),
        diagonal=tuple(diagonal),
    )


# ---------------------------------------------------------------------------
# Exactly calibrated sequences (for the solution formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibratedStep:
    index: int
    diagonal: Poly  # satisfies the exact Wronskian relation
    entries: tuple[Poly, ...]  # tuple representatives after the step
    rhs: Poly  # W(prev_i, diagonal), prev_i the entry before the step


def calibrated_sequence(
    entries: Sequence[Poly],
    indices: Sequence[int],
    p: ProblemData,
    shifts: Optional[Sequence[Fraction]] = None,
) -> list[CalibratedStep]:
    """Diagonal sequence with exact Wronskian normalization at every step.

    `entries` are the seed representatives (not rescaled); each step
    replaces entry i by the Wronskian partner d of prev_i, which solves
    W(prev_i, d) = T_i * prod_{j != i} prev_j^(-a_ij) exactly.  The default
    member has (d // prev_i)(0) = 0, i.e. zero integration constant;
    `shifts` adds shifts[l] * prev_i to the l-th diagonal polynomial, which
    ranges over all associated sequences without disturbing the Wronskian
    relations.
    """
    if shifts is not None and len(shifts) != len(indices):
        raise ValueError("one shift per path index required")
    current = list(entries)
    steps: list[CalibratedStep] = []
    for pos, i in enumerate(indices, start=1):
        rhs = wronskian_rhs(current, i, p)
        d = wronskian_partner(current[i - 1], rhs)
        if d is None:
            raise ReproductionError(f"calibrated step {pos} (direction {i}) is not fertile")
        if shifts is not None and shifts[pos - 1]:
            d = d + current[i - 1] * Fraction(shifts[pos - 1])
        current[i - 1] = d
        steps.append(CalibratedStep(index=i, diagonal=d, entries=tuple(current), rhs=rhs))
    return steps


# ---------------------------------------------------------------------------
# Population exploration and cell labels
# ---------------------------------------------------------------------------


class ExplorationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Cell:
    degrees: tuple[int, ...]
    word: tuple[int, ...]
    dimension: int
    sample: PolyTuple
    degree_jumps: int  # strict degree increases along the reaching path


@dataclass(frozen=True)
class PopulationSummary:
    problem: ProblemData
    base_degrees: tuple[int, ...]
    cells: dict[tuple[int, ...], Cell]
    exceptional: tuple[str, ...]  # non-generic canonical members encountered

    def __len__(self) -> int:
        return len(self.cells)


_FALLBACK_PARAMETERS = tuple(Fraction(c) for c in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6))


def _dominant_degrees(l: tuple[int, ...], deg_t: Sequence[int], p: ProblemData) -> tuple[int, ...]:
    """The degree vector of the shifted orbit of l whose weight at infinity
    is dominant: the base of the cell labels.

    The weight at infinity of l has coordinates m_i = deg T_i - sum_j a_ij l_j,
    and the shifted reflection s_i maps m_i to -m_i - 2 while lowering l_i by
    -(m_i + 1).  So reflecting in a node with m_i <= -2 strictly lowers
    sum(l), and the descent ends at the dominant point.  A node with
    m_i = -1 is a fixed point of s_i: the orbit has no dominant point.
    """
    while True:
        m = weight_at_infinity(p.weights, l, p.cartan)
        i = next((k for k, v in enumerate(m, start=1) if v < 0), 0)
        if not i:
            break
        if m[i - 1] == -1:
            raise ExplorationError(f"degrees {l} lie on a wall: s_{i} fixes them, so no cell is dominant")
        l = shifted_reflect_degrees(i, l, deg_t, p.cartan)
    if min(l) < 0:
        raise ExplorationError(f"the dominant point {l} of the shifted orbit has a negative degree")
    return l


def explore(seed: PolyTuple, p: ProblemData, max_cells: Optional[int] = None) -> PopulationSummary:
    """Breadth-first closure of the population over canonical descents.

    The walk is `liedata._orbit` on the degree vectors.  Each is expanded
    once, into the directions whose shifted reflection is a new degree
    vector, so it stays in the finite shifted Weyl orbit of the seed
    degrees; it stops at `max_cells` cells, with no descent past the last.
    Samples are generic members whenever the family has one among the
    scanned parameters.  A descent from a generic sample is solved once per
    distinct (i, y_i, linked y_j) for the length of the call (the second
    lemma of the module docstring).  Cells are labeled by the shortest Weyl
    word reproducing their degree vector from the dominant point of the
    seed's shifted orbit: the walk's own word when the seed is that point
    and no descent failed, else the word of the label walk `cell_words`.
    """
    seed_report = is_generic(seed, p)
    if not seed_report:
        raise ExplorationError(f"seed is not generic: {seed_report.reason}")
    deg_t = [t.degree() for t in p.T]
    base_degrees = _dominant_degrees(seed.degrees, deg_t, p)
    a = p.cartan.a
    linked = [[j for j in range(p.rank) if j != i and a[i][j]] for i in range(p.rank)]
    # degrees -> (sample, degree jumps along the reaching path, sample is generic)
    seen: dict[tuple[int, ...], tuple[PolyTuple, int, bool]] = {seed.degrees: (seed, 0, True)}
    # (i, y_i, linked y_j) of a generic sample -> (new entry, canonical ok,
    # member generic), or the message of a failed descent
    outcomes: dict[tuple, object] = {}
    exceptional: list[str] = []
    dropped = False

    def step(i: int, key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        nonlocal dropped
        ckey = shifted_reflect_degrees(i, key, deg_t, p.cartan)
        if ckey in seen:
            return ckey
        sample, jumps, sample_generic = seen[key]
        if sample_generic:
            descent = (i, sample[i - 1], *[sample[j] for j in linked[i - 1]])
            if (outcome := outcomes.get(descent)) is None:
                outcome = outcomes[descent] = _descent(sample, i, p, True, key, ckey)
        else:
            outcome = _descent(sample, i, p, False, key, ckey)
        if isinstance(outcome, str):
            exceptional.append(f"{key} direction {i}: {outcome}")
            dropped = True
            return None
        entry, canonical_ok, member_generic = outcome
        if not canonical_ok:
            exceptional.append(f"{key} direction {i}: canonical member not generic")
        jump = 1 if ckey[i - 1] > key[i - 1] else 0
        seen[ckey] = (sample.replace(i, entry), jumps + jump, member_generic)
        return ckey

    words = dict(islice(_orbit(seed.degrees, step, p.rank), max_cells))
    if dropped or seed.degrees != base_degrees:
        # the walk's words are shortest only from the dominant point over all edges
        words = {}
        for degs, word in cell_words(base_degrees, p.weights, p.cartan):
            if degs in seen:
                words[degs] = word
                if len(words) == len(seen):  # the rest of W labels no reached cell
                    break
    cells = {d: Cell(d, words[d], len(words[d]), sample, jumps) for d, (sample, jumps, _) in seen.items()}
    return PopulationSummary(p, base_degrees, cells, tuple(exceptional))


def _descent(sample: PolyTuple, i: int, p: ProblemData, sample_generic: bool, key: tuple, ckey: tuple):
    """(new entry, canonical member generic, new sample generic) of the
    descent from `sample` in direction i, or the message of its failure.

    The entry is the partner u if it is generic, else the first generic
    u + c y_i over `_FALLBACK_PARAMETERS`, scanned only if the descent
    raises the degree: only then does a member have the degree of u.
    Proof: (u // y_i)(0) = 0, so deg u != deg y_i (else u // y_i would be
    a nonzero constant).  So every u + c y_i has degree deg u when
    deg u > deg y_i, and degree deg y_i != deg u otherwise.
    """
    solve = canonical_partner if sample_generic else fertility_direction
    try:
        u = solve(sample, i, p)
    except FertilityError as exc:
        return str(exc)
    if u is None:
        return f"tuple is not fertile in direction {i}"
    if (degree := u.degree()) != ckey[i - 1]:
        raise ExplorationError(f"{key} direction {i}: degree {degree}, s_i predicts {ckey[i - 1]}")

    def generic(entry: Poly) -> bool:  # squarefree suffices by the first lemma
        return squarefree(entry) if sample_generic else bool(is_generic(sample.replace(i, entry), p))

    if generic(u):
        return u, True, True
    if degree > key[i - 1]:  # u + c y_i is monic: deg u > deg y_i
        for c in _FALLBACK_PARAMETERS:
            if generic(entry := u + sample[i - 1] * c):
                return entry, False, True
    return u, False, False


def cell_of(y: PolyTuple, base_degrees: Sequence[int], p: ProblemData) -> tuple[int, ...]:
    """Shortest Weyl word w with l^w = deg y, from base degrees."""
    for degs, word in cell_words(base_degrees, p.weights, p.cartan):
        if degs == y.degrees:
            return word
    raise CellError(f"no Weyl word reproduces degrees {y.degrees} from base {tuple(base_degrees)}")
