"""Reproduction procedures, diagonal sequences, and population exploration.

`descend` realizes one simple reproduction step: the one-parameter family
c1 * ~y_i + c2 * y_i replacing y_i, returned monic.  `reproduce_path`
iterates it and records the diagonal polynomials, checking the Wronskian
relation at every step (up to a nonzero scalar, since tuples are kept as
monic projective representatives).

`calibrated_sequence` produces the same diagonal sequence with exact
scales: each new polynomial d satisfies W(prev_i, d) = T_i * prod
(prev_j)^(-a_ij) on the nose, which is the normalization the explicit
solution formulas require.  It integrates through non-squarefree bases
(these legitimately appear when a path revisits a direction), using the
general rational-antiderivative routine.

`explore` walks the population of a seed by canonical descents, only into
new cells (the shifted reflection s_i predicts where a descent lands), and
keeps one sample tuple per cell, labelled by its shifted Weyl orbit word.
When the canonical member of a family is not generic, a deterministic scan
over small integer parameters picks a generic member of the same degree so
exploration can continue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import Poly, RatFunc, rational_antiderivative, wronskian
from .critical import (
    FertilityError,
    PolyTuple,
    ProblemData,
    fertility_direction,
    is_generic,
    wronskian_rhs,
)
from .liedata import (
    CellError,
    cell_words,
    is_dominant_integral,
    shifted_reflect_degrees,
    weight_at_infinity,
)


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
        new = self.canonical * c1 + self.base[self.direction - 1] * c2
        if new.is_zero():
            raise ValueError("degenerate parameter: member collapses to zero")
        return self.base.replace(self.direction, new)


def descend_family(y: PolyTuple, i: int, p: ProblemData) -> DescendantFamily:
    tilde = fertility_direction(y, i, p)
    if tilde is None:
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
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return f * g.leading() == g * f.leading()


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


def solve_wronskian_exact(base: Poly, rhs: Poly) -> Optional[Poly]:
    """Polynomial d with W(base, d) = rhs exactly, or None.

    General solution d = -base * C + const * base with C the antiderivative
    of rhs/base^2; a polynomial solution exists iff C is rational and
    base * C is a polynomial.  The member with zero integration constant
    is returned.
    """
    if base.is_zero():
        raise ValueError("base polynomial must be nonzero")
    C = rational_antiderivative(RatFunc(rhs, base * base))
    if C is None:
        return None
    d = RatFunc(base) * C
    if d.den.degree() != 0:
        return None
    return -d.num


@dataclass(frozen=True)
class CalibratedStep:
    index: int
    diagonal: Poly  # satisfies the exact Wronskian relation
    entries: tuple[Poly, ...]  # tuple representatives after the step


def calibrated_sequence(
    entries: Sequence[Poly],
    indices: Sequence[int],
    p: ProblemData,
    shifts: Optional[Sequence[Fraction]] = None,
) -> list[CalibratedStep]:
    """Diagonal sequence with exact Wronskian normalization at every step.

    `entries` are the seed representatives (not rescaled); each step
    replaces entry i by a polynomial d solving W(prev_i, d) = T_i *
    prod_{j != i} prev_j^(-a_ij) exactly.  The default member has zero
    integration constant; `shifts` adds shifts[l] * prev_i to the l-th
    diagonal polynomial, which ranges over all associated sequences
    without disturbing the Wronskian relations.
    """
    if shifts is not None and len(shifts) != len(indices):
        raise ValueError("one shift per path index required")
    current = list(entries)
    steps: list[CalibratedStep] = []
    for pos, i in enumerate(indices, start=1):
        d = solve_wronskian_exact(current[i - 1], wronskian_rhs(current, i, p))
        if d is None:
            raise ReproductionError(f"calibrated step {pos} (direction {i}) is not fertile")
        if shifts is not None and shifts[pos - 1]:
            d = d + current[i - 1] * Fraction(shifts[pos - 1])
        current[i - 1] = d
        steps.append(CalibratedStep(index=i, diagonal=d, entries=tuple(current)))
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
    reached_by: tuple[int, ...]  # descent directions from the seed
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


def _generic_member(family: DescendantFamily, p: ProblemData) -> tuple[PolyTuple, bool]:
    """Canonical member if generic, else a same-degree generic member.

    Returns (sample, canonical_was_generic).  Falls back to the canonical
    member when no scanned parameter is generic.
    """
    canonical = family.member(1, 0)
    if is_generic(canonical, p):
        return canonical, True
    want = canonical.degrees
    for c2 in _FALLBACK_PARAMETERS:
        member = family.member(1, c2)
        if member.degrees != want:
            continue
        if is_generic(member, p):
            return member, False
    return canonical, False


def explore(seed: PolyTuple, p: ProblemData, max_cells: Optional[int] = None) -> PopulationSummary:
    """Breadth-first closure of the population over canonical descents.

    Each degree vector is expanded once, into the directions whose shifted
    reflection is a new degree vector, so the walk stays in the finite
    shifted Weyl orbit of the seed degrees.  Samples are generic members
    whenever the family has one among the scanned parameters.  Cells are
    labeled by the Weyl word reproducing their degree vector from the
    dominant base member.
    """
    if not is_generic(seed, p):
        raise ExplorationError(f"seed is not generic: {is_generic(seed, p).reason}")
    seen: dict[tuple[int, ...], tuple[PolyTuple, tuple[int, ...], int]] = {
        seed.degrees: (seed, (), 0)
    }
    frontier = [seed.degrees]
    exceptional: list[str] = []
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for key in frontier:
            sample, path, jumps = seen[key]
            for i in range(1, p.rank + 1):
                ckey = shifted_reflect_degrees(i, key, p.weights, p.cartan)
                if ckey in seen:
                    continue
                try:
                    family = descend_family(sample, i, p)
                except (FertilityError, ReproductionError) as exc:
                    exceptional.append(f"{key} direction {i}: {exc}")
                    continue
                if (degree := family.canonical.degree()) != ckey[i - 1]:
                    raise ExplorationError(f"{key} direction {i}: degree {degree}, s_i predicts {ckey[i - 1]}")
                member, canonical_ok = _generic_member(family, p)
                if not canonical_ok:
                    exceptional.append(f"{key} direction {i}: canonical member not generic")
                jump = 1 if ckey[i - 1] > key[i - 1] else 0
                seen[ckey] = (member, path + (i,), jumps + jump)
                nxt.append(ckey)
            if max_cells is not None and len(seen) >= max_cells:
                nxt = []
                break
        frontier = nxt

    # locate the dominant base member
    base_degrees = None
    for degs in seen:
        lam = weight_at_infinity(p.weights, degs, p.cartan)
        if is_dominant_integral(lam):
            base_degrees = degs
            break
    if base_degrees is None:
        raise ExplorationError("no member with dominant weight at infinity was reached")

    labels = cell_words(base_degrees, p.weights, p.cartan)
    cells = {}
    for degs, (sample, path, jumps) in seen.items():
        word = labels[degs]
        cells[degs] = Cell(
            degrees=degs,
            word=word,
            dimension=len(word),
            sample=sample,
            reached_by=path,
            degree_jumps=jumps,
        )
    return PopulationSummary(
        problem=p,
        base_degrees=base_degrees,
        cells=cells,
        exceptional=tuple(exceptional),
    )


def cell_of(y: PolyTuple, base_degrees: Sequence[int], p: ProblemData) -> tuple[int, ...]:
    """Shortest Weyl word w with l^w = deg y, from base degrees."""
    word = cell_words(base_degrees, p.weights, p.cartan).get(y.degrees)
    if word is None:
        raise CellError(f"no Weyl word reproduces degrees {y.degrees} from base {tuple(base_degrees)}")
    return word
