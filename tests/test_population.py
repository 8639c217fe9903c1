import functools
import random
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import residual_case

from operpop.exactalg import Poly, RatFunc, log_derivative, squarefree, wronskian, wronskian_partner
from operpop.critical import FertilityError, PolyTuple, build_T, fertility_direction, is_generic, problem
from operpop.liedata import (
    cell_words,
    degrees_for,
    is_dominant_integral,
    shifted_reflect_degrees,
    weight_at_infinity,
    weyl_elements,
    weyl_length,
)
from operpop import liedata, population
from operpop.population import (
    Cell,
    ExplorationError,
    PopulationSummary,
    ReproductionError,
    calibrated_sequence,
    cell_of,
    descend,
    descend_family,
    explore,
    reproduce_path,
)

X = Poly.x()
CANON = (F(1), F(0))


class TestDescend:
    def test_seed_to_x(self):
        p = problem("A", 1)
        assert descend(PolyTuple.constants(1), 1, CANON, p) == PolyTuple([X])

    def test_x_back_to_constant(self):
        p = problem("A", 1)
        assert descend(PolyTuple([X]), 1, CANON, p) == PolyTuple.constants(1)

    def test_half_example(self, half_problem, half_tuple):
        child = descend(half_tuple, 1, CANON, half_problem)
        assert child == PolyTuple([Poly([F(1, 4), F(-1, 2), 1])])

    def test_member_identities(self, half_problem, half_tuple):
        family = descend_family(half_tuple, 1, half_problem)
        assert family.member(0, 1) == half_tuple
        with pytest.raises(ValueError):
            family.member(0, 0)

    def test_infertile_errors(self):
        p = problem("A", 1, [[2]], [0])
        with pytest.raises(ReproductionError):
            descend(PolyTuple([Poly([-1, 1])]), 1, CANON, p)


class TestReproducePath:
    def test_empty_path(self, half_problem, half_tuple):
        path = reproduce_path(half_tuple, [], None, half_problem)
        assert path.last() == half_tuple
        assert path.diagonal == ()

    def test_a2_canonical(self):
        p = problem("A", 2)
        path = reproduce_path(PolyTuple.constants(2), [1, 2], None, p)
        assert path.tuples[0] == PolyTuple([X, Poly.one()])
        assert path.diagonal == (X, Poly([0, 0, 1]))  # x, then monic x^2

    def test_repeat_index_returns_to_family(self):
        p = problem("A", 1)
        path = reproduce_path(PolyTuple([X]), [1, 1], None, p)
        # second descend inverts the first up to parameter: degrees return
        assert path.tuples[-1].degrees == (1,)

    def test_error_names_step(self):
        p = problem("A", 1, [[2]], [0])
        with pytest.raises(ReproductionError, match="step 1"):
            reproduce_path(PolyTuple([Poly([-1, 1])]), [1], None, p)


class TestCalibratedSequence:
    def test_exact_wronskians_along_paths(self):
        cases = [
            ("A", 2, [1, 2]),
            ("A", 2, [1, 2, 1]),
            ("B", 2, [1, 2, 1, 2]),
            ("G", 2, [1, 2, 1]),
        ]
        for family, rank, indices in cases:
            p = problem(family, rank)
            entries = [Poly.one()] * rank
            steps = calibrated_sequence(entries, indices, p)
            current = list(entries)
            T = build_T(p)
            for step in steps:
                i = step.index
                rhs = T[i - 1]
                for j in range(rank):
                    if j != i - 1:
                        e = -p.cartan.a[i - 1][j]
                        rhs = rhs * current[j] ** e
                assert wronskian(current[i - 1], step.diagonal) == rhs
                current[i - 1] = step.diagonal

    @pytest.mark.parametrize("name", ["a3", "a3_zero_weight", "b2", "d4_zero_weight"])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_each_step_carries_its_wronskian(self, name, shifted, request):
        # a shift adds a multiple of prev to d and leaves W(prev, d) alone; the
        # step's rhs gives -log'(d / prev) = W(prev, d) / (prev d) in one gcd
        p, y, path = residual_case(name, request)
        shifts = [F(2 * k - 5, k) for k in range(1, len(path) + 1)] if shifted else None
        entries = y
        for step in calibrated_sequence(entries, path, p, shifts=shifts):
            prev = entries[step.index - 1]
            assert wronskian(prev, step.diagonal) == step.rhs
            assert RatFunc(step.rhs, prev * step.diagonal) == -log_derivative(RatFunc(step.diagonal, prev))
            entries = step.entries

    def test_wronskian_partner_nonsquarefree_base(self):
        # base x^3/3 with constant integrand: the B_2 [1,2,1,2] step
        base = X**3 * F(1, 3)
        rhs = (X**3 * F(1, 6)) ** 2 * 9  # makes rhs/base^2 constant
        d = wronskian_partner(base, rhs)
        assert d is not None
        assert wronskian(base, d) == rhs

    def test_unsolvable_returns_none(self):
        assert wronskian_partner(X**2, Poly.one()) is None


def _generic_member_by_full_check(family, p):
    """A generic member of the family, the canonical one first, else one of
    the fallback parameters with the canonical degrees; the full
    `is_generic` decides every member."""
    canonical = family.member(1, 0)
    if is_generic(canonical, p):
        return canonical, True, True
    for c2 in population._FALLBACK_PARAMETERS:
        member = family.member(1, c2)
        if member.degrees == canonical.degrees and is_generic(member, p):
            return member, False, True
    return canonical, False, False


def _explore_reference(seed, p, descents=None):
    """`explore` without its descent memo: one partner solve per new cell,
    and the base degrees found by scanning the reached cells.  Appends to
    `descents` the key (i, y_i, linked y_j) of each solve from a generic
    sample, and a fresh object for each solve from a non-generic one."""
    assert is_generic(seed, p)
    deg_t = [t.degree() for t in p.T]
    seen = {seed.degrees: (seed, 0, True)}
    queue = deque([seed.degrees])
    exceptional = []
    while queue:
        key = queue.popleft()
        sample, jumps, sample_generic = seen[key]
        for i in range(1, p.rank + 1):
            ckey = shifted_reflect_degrees(i, key, deg_t, p.cartan)
            if ckey in seen:
                continue
            if descents is not None:
                linked = [sample[j - 1] for j in range(1, p.rank + 1) if j != i and p.cartan.a[i - 1][j - 1]]
                descents.append((i, sample[i - 1], *linked) if sample_generic else object())
            try:
                family = descend_family(sample, i, p)
            except (FertilityError, ReproductionError) as exc:
                exceptional.append(f"{key} direction {i}: {exc}")
                continue
            assert family.canonical.degree() == ckey[i - 1]
            member, canonical_ok, member_generic = _generic_member_by_full_check(family, p)
            if not canonical_ok:
                exceptional.append(f"{key} direction {i}: canonical member not generic")
            jump = 1 if ckey[i - 1] > key[i - 1] else 0
            seen[ckey] = (member, jumps + jump, member_generic)
            queue.append(ckey)
    base = next(d for d in seen if is_dominant_integral(weight_at_infinity(p.weights, d, p.cartan)))
    labels = dict(cell_words(base, p.weights, p.cartan))
    cells = {d: Cell(d, labels[d], len(labels[d]), sample, jumps) for d, (sample, jumps, _) in seen.items()}
    return PopulationSummary(p, base, cells, tuple(exceptional))


@functools.cache
def _a2_top_sample():
    """Weighted A2 and the sample of its longest cell (4, 4): a seed whose
    weight at infinity is not dominant."""
    p = problem("A", 2, [[1, 0], [0, 1]], [0, 1])
    return p, explore(PolyTuple.constants(2), p).cells[(4, 4)].sample


class TestExplore:
    @pytest.mark.parametrize(
        "family,rank,count",
        [
            ("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12),
            ("A", 3, 24), ("A", 4, 120), ("B", 3, 48), ("C", 3, 48), ("D", 4, 192),
            ("A", 5, 720), ("B", 4, 384), ("C", 4, 384),
        ],
    )
    def test_cell_counts(self, family, rank, count):
        p = problem(family, rank)
        summary = explore(PolyTuple.constants(rank), p)
        assert len(summary) == count

    def test_a2_degree_vectors(self):
        p = problem("A", 2)
        summary = explore(PolyTuple.constants(2), p)
        assert set(summary.cells) == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)}

    def test_matches_shifted_action_oracle(self):
        for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            predicted = set()
            for word in weyl_elements(p.cartan):
                predicted.add(degrees_for(word, p.weights, (0,) * rank, p.cartan))
            assert set(summary.cells) == predicted

    def test_dimensions_and_jumps(self):
        for family, rank in [("A", 2), ("B", 2)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            for cell in summary.cells.values():
                assert cell.dimension == weyl_length(cell.word, p.cartan)
                assert cell.degree_jumps == cell.dimension

    def test_samples_generic(self):
        for family, rank in [("A", 2), ("B", 2)]:
            p = problem(family, rank)
            summary = explore(PolyTuple.constants(rank), p)
            for cell in summary.cells.values():
                assert is_generic(cell.sample, p), cell

    def test_nontrivial_weight_population(self, half_problem, half_tuple):
        summary = explore(half_tuple, half_problem)
        assert set(summary.cells) == {(1,), (2,)}
        assert summary.base_degrees == (1,)

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [
            ("A", 5, [], []),
            ("D", 4, [], []),
            ("F", 4, [], []),
            ("G", 2, [[1, 0], [0, 1]], [0, 1]),
            ("C", 3, [[1, 0, 0], [0, 0, 1]], [0, 1]),
        ],
    )
    def test_corpus_samples_pass_full_genericity(self, family, rank, weights, points):
        p = problem(family, rank, weights, points)
        summary = explore(PolyTuple.constants(rank), p)
        for cell in summary.cells.values():
            assert is_generic(cell.sample, p), cell.degrees

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [("D", 4, [], []), ("B", 2, [], []), ("G", 2, [[1, 0], [0, 1]], [0, 1])],
    )
    def test_full_genericity_check_only_on_the_seed(self, family, rank, weights, points, monkeypatch):
        # B_2 n=0 has non-generic canonical members, so fallbacks are scanned too
        calls = []

        def counting(y, p):
            calls.append(y)
            return is_generic(y, p)

        monkeypatch.setattr(population, "is_generic", counting)
        p = problem(family, rank, weights, points)
        seed = PolyTuple.constants(rank)
        summary = explore(seed, p)
        assert all(is_generic(cell.sample, p) for cell in summary.cells.values())
        assert calls == [seed]

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [
            ("B", 2, [], []),
            ("C", 3, [], []),
            ("G", 2, [[1, 0], [0, 1]], [0, 1]),
            ("A", 3, [[1, 0, 0], [0, 0, 1]], [-1, 2]),
        ],
    )
    @pytest.mark.parametrize("fallbacks", [population._FALLBACK_PARAMETERS, ()])
    def test_matches_full_genericity_reference(self, family, rank, weights, points, fallbacks, monkeypatch):
        # without fallback parameters a non-generic canonical member stays the
        # sample, and its children must then be checked in full
        monkeypatch.setattr(population, "_FALLBACK_PARAMETERS", fallbacks)
        p = problem(family, rank, weights, points)
        seed = PolyTuple.constants(rank)
        fast = explore(seed, p)
        reference = _explore_reference(seed, p)
        assert fast.exceptional == reference.exceptional
        assert {k: c.sample for k, c in fast.cells.items()} == {k: c.sample for k, c in reference.cells.items()}

    @pytest.mark.parametrize(
        "family,rank,weights,points,solves",
        [("D", 4, [], [], 137), ("G", 2, [[1, 0], [0, 1]], [0, 1], 11)],
    )
    def test_one_solve_per_distinct_descent(self, family, rank, weights, points, solves, monkeypatch):
        # D4 has 191 new cells but 137 distinct descents; G2 has no
        # commuting pair, so each of its 11 descents is distinct
        p = problem(family, rank, weights, points)
        descents = []
        _explore_reference(PolyTuple.constants(rank), p, descents)
        calls = []

        def counting(solve):
            def wrapped(y, i, p):
                calls.append(i)
                return solve(y, i, p)

            return wrapped

        for name in ("fertility_direction", "canonical_partner"):
            monkeypatch.setattr(population, name, counting(getattr(population, name)))
        explore(PolyTuple.constants(rank), p)
        assert len(calls) == len(set(descents)) == solves

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [
            ("A", 3, [], []),
            ("A", 4, [], []),
            ("D", 4, [], []),
            ("B", 3, [], []),
            ("C", 3, [[1, 0, 0], [0, 0, 1]], [0, 1]),
            ("B", 2, [[1, 0], [0, 1]], [0, 1]),
            ("G", 2, [[1, 0], [0, 1]], [0, 1]),
            ("A", 2, [[1, 0], [0, 1]], [0, 1]),  # from the non-dominant seed
        ],
    )
    @pytest.mark.parametrize("fallbacks", [population._FALLBACK_PARAMETERS, ()])
    def test_matches_memo_free_reference(self, family, rank, weights, points, fallbacks, monkeypatch):
        p = problem(family, rank, weights, points)
        seed = _a2_top_sample()[1] if family == "A" and rank == 2 else PolyTuple.constants(rank)
        monkeypatch.setattr(population, "_FALLBACK_PARAMETERS", fallbacks)
        assert explore(seed, p) == _explore_reference(seed, p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_max_cells_from_a_non_dominant_seed(self, n):
        p, seed = _a2_top_sample()
        summary = explore(seed, p, max_cells=n)
        assert len(summary) == min(n, 6)
        assert summary.base_degrees == (0, 0)
        for cell in summary.cells.values():
            assert cell.word == cell_of(cell.sample, (0, 0), p)

    @pytest.mark.parametrize(
        "weights,points,seed,match",
        [
            # deg T = 1 and deg y = 1: m = -1, so s_1 fixes the degrees
            ([[1]], [0], PolyTuple([Poly([-5, 1])]), "wall"),
            # deg T = 0 and deg y = 3: the orbit is {3, -2}
            ([], [], PolyTuple([Poly([0, -1, 0, 1])]), "negative"),
        ],
    )
    def test_seed_orbit_without_a_dominant_cell_raises(self, weights, points, seed, match):
        with pytest.raises(ExplorationError, match=match):
            explore(seed, problem("A", 1, weights, points))

    def test_generic_sample_is_not_tested_for_squarefree_again(self, monkeypatch):
        calls = []
        monkeypatch.setattr(population, "fertility_direction", lambda y, i, p: calls.append(i))
        summary = explore(PolyTuple.constants(4), problem("D", 4))
        assert len(summary) == 192 and calls == []

    def test_wrong_canonical_degree_raises(self, monkeypatch):
        def too_high(solve):
            def wrapped(y, i, p):
                tilde = solve(y, i, p)
                return None if tilde is None else tilde * X

            return wrapped

        for name in ("fertility_direction", "canonical_partner"):
            monkeypatch.setattr(population, name, too_high(getattr(population, name)))
        with pytest.raises(ExplorationError, match="predicts 1"):
            explore(PolyTuple.constants(1), problem("A", 1))

    def test_exceptional_members_recorded_not_fatal(self):
        # B_2 n=0 canonical members like (x, x^3) are non-generic; the
        # exploration logs them and continues through generic members
        summary = explore(PolyTuple.constants(2), problem("B", 2))
        assert summary.exceptional
        assert len(summary) == 8

    def test_non_generic_canonical_member_of_a_lowering_descent_is_kept(self, monkeypatch):
        # the first squarefree test is of the canonical degree-2 entry of the
        # descent from (4, 4) in direction 1; a member u + c y_1 has degree
        # 4, not that of the cell (2, 4), so none may replace it
        p, seed = _a2_top_sample()
        calls = []

        def first_fails(f):
            calls.append(f)
            return len(calls) > 1 and squarefree(f)

        monkeypatch.setattr(population, "squarefree", first_fails)
        summary = explore(seed, p)
        assert calls[0].degree() == 2
        assert "(4, 4) direction 1: canonical member not generic" in summary.exceptional
        assert all(cell.sample.degrees == key for key, cell in summary.cells.items())

    @pytest.mark.parametrize("name", ["B2", "G2", "A3"])
    def test_max_cells_is_exact(self, name):
        family, rank, weights = WEIGHTED[name]
        p = problem(family, rank, weights, [0, 1])
        full = explore(PolyTuple.constants(rank), p)
        for n in range(1, rank + 3):
            capped = explore(PolyTuple.constants(rank), p, max_cells=n)
            assert len(capped) == min(n, len(full))
            for degs, cell in capped.cells.items():
                assert cell.sample == full.cells[degs].sample
                assert cell.word == cell_of(cell.sample, capped.base_degrees, p)

    def test_label_walk_stops_at_the_reached_cells(self, monkeypatch):
        # the label walk calls liedata's shifted_reflect_degrees once per
        # point and letter; from the dominant cell the exploration's words
        # are the labels, so it does not run at all
        points = []

        def counting(i, l, deg_t, c):
            points.append(l)
            return shifted_reflect_degrees(i, l, deg_t, c)

        p, seed = _a2_top_sample()
        monkeypatch.setattr(liedata, "shifted_reflect_degrees", counting)
        assert len(explore(PolyTuple.constants(6), problem("E", 6), max_cells=10)) == 10
        assert points == []
        # from a non-dominant seed it runs, and stops before it has walked
        # all of W (|W| * rank = 12 calls on A2)
        assert len(explore(seed, p, max_cells=3)) == 3
        assert 0 < len(points) < 12

    def test_dropped_descent_from_a_dominant_seed_keeps_shortest_words(self, monkeypatch):
        # with the edge (0, 0) -> s_1 gone the walk reaches s_1 last, by the
        # word (2, 1, 2, 1, 2); the label walk gives it (1,)
        p = problem("A", 2)
        descent = population._descent

        def failing(sample, i, p, sample_generic, key, ckey):
            if key == (0, 0) and i == 1:
                return "dropped"
            return descent(sample, i, p, sample_generic, key, ckey)

        monkeypatch.setattr(population, "_descent", failing)
        summary = explore(PolyTuple.constants(2), p)
        assert len(summary) == 6
        assert summary.exceptional[0] == "(0, 0) direction 1: dropped"
        for cell in summary.cells.values():
            assert cell.word == cell_of(cell.sample, summary.base_degrees, p)
            assert cell.dimension == weyl_length(cell.word, p.cartan)


class TestCellOf:
    def test_identity(self, b2_problem, b2_tuple):
        assert cell_of(b2_tuple, b2_tuple.degrees, b2_problem) == ()

    def test_half(self, half_problem, half_tuple):
        child = descend(half_tuple, 1, CANON, half_problem)
        assert cell_of(child, (1,), half_problem) == (1,)

    def test_a2_longest(self):
        p = problem("A", 2)
        sample = PolyTuple([Poly([-1, 0, 1]), Poly([1, 0, 1])])
        assert cell_of(sample, (0, 0), p) in ((1, 2, 1), (2, 1, 2))

    @pytest.mark.parametrize(
        "family,rank,weights,points",
        [
            ("B", 2, [[1, 0], [0, 1]], [0, 1]),
            ("A", 3, [], []),
            ("G", 2, [[1, 0], [0, 1]], [0, 1]),
            ("D", 4, [], []),
        ],
    )
    def test_agrees_with_explore_labels(self, family, rank, weights, points):
        p = problem(family, rank, weights, points)
        summary = explore(PolyTuple.constants(rank), p)
        for cell in summary.cells.values():
            assert cell_of(cell.sample, summary.base_degrees, p) == cell.word


class TestFertilityPropagation:
    def test_random_parameter_descendants_mostly_fertile(self):
        rng = random.Random(17)
        for p in (problem("A", 2), problem("B", 2), problem("A", 2, [[1, 1]], [0])):
            seed = PolyTuple.constants(p.rank)
            for i in range(1, p.rank + 1):
                family = descend_family(seed, i, p)
                fertile = 0
                for _ in range(20):
                    c2 = F(rng.randint(-30, 30), rng.randint(1, 7))
                    member = family.member(1, c2)
                    try:
                        ok = all(
                            fertility_direction(member, j, p) is not None
                            for j in range(1, p.rank + 1)
                        )
                    except Exception:
                        ok = False
                    fertile += ok
                assert fertile >= 18


WEIGHTED = {
    "A3": ("A", 3, [[1, 0, 0], [0, 0, 1]]),
    "B2": ("B", 2, [[1, 0], [0, 1]]),
    "G2": ("G", 2, [[1, 0], [0, 1]]),
    "C3": ("C", 3, [[1, 0, 0], [0, 0, 1]]),
}


@functools.cache
def _weighted_population(name, points):
    family, rank, weights = WEIGHTED[name]
    p = problem(family, rank, weights, points)
    return p, explore(PolyTuple.constants(rank), p)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(WEIGHTED)),
    points=st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True).map(tuple),
    cell=st.integers(0, 10**6),
    c2s=st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1, max_size=4),
)
def test_member_of_generic_sample_is_generic_iff_new_entry_squarefree(name, points, cell, c2s):
    p, summary = _weighted_population(name, points)
    cells = sorted(summary.cells)
    sample = summary.cells[cells[cell % len(cells)]].sample
    assume(is_generic(sample, p))
    for i in range(1, p.rank + 1):
        try:
            family = descend_family(sample, i, p)
        except ReproductionError:
            continue
        for c2 in (F(0), *c2s):
            member = family.member(1, c2)
            assert bool(is_generic(member, p)) == squarefree(member[i - 1]), (i, c2)


# Scalars with numerators and denominators of up to about 200 bits.
BIG = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
BIG_POLYS = st.lists(BIG | st.integers(-3, 3), max_size=5).map(Poly)


@st.composite
def proportional_pairs(draw):
    """(f, g): g a scalar multiple of f, one off by a monomial, a zero
    operand, or unrelated."""
    f = draw(BIG_POLYS)
    kind = draw(st.sampled_from(["multiple", "perturbed", "zero", "unrelated"]))
    if kind == "multiple":
        return f, f * draw(BIG.filter(bool))
    if kind == "perturbed":
        scale = draw(st.just(1) | BIG.filter(bool))
        return f, f * scale + Poly([0] * draw(st.integers(0, 5)) + [draw(st.integers(-2, 2))])
    if kind == "zero":
        return draw(st.sampled_from([(f, Poly.zero()), (Poly.zero(), f)]))
    return f, draw(BIG_POLYS)


def _proportional_by_products(f, g):
    """The product form: f * lc(g) == g * lc(f) over Q."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return f * g.leading() == g * f.leading()


@settings(max_examples=300, deadline=None)
@given(proportional_pairs())
def test_proportional_matches_product_form(pair):
    f, g = pair
    assert population._proportional(f, g) == _proportional_by_products(f, g)
