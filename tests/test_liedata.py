import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from operpop.liedata import (
    CellError,
    cartan_data,
    cell_words,
    degrees_for,
    langlands_dual,
    shifted_action,
    shifted_reflect_degrees,
    weight,
    weyl_action,
    weyl_elements,
    weyl_length,
    weyl_order,
    words_equal,
)

# Known group orders and degrees of the basic invariants (Bourbaki,
# Lie Groups and Lie Algebras, ch. VI, plates I-IX); |W| is the product of
# the degrees and |Phi+| the sum of (degree - 1).
WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("A", 5): 720,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384,
    ("D", 4): 192, ("D", 5): 1920,
    ("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
}

WEYL_DEGREES = {
    ("A", 1): (2,), ("A", 2): (2, 3), ("A", 3): (2, 3, 4), ("A", 4): (2, 3, 4, 5),
    ("B", 2): (2, 4), ("B", 3): (2, 4, 6), ("C", 3): (2, 4, 6), ("B", 4): (2, 4, 6, 8),
    ("D", 4): (2, 4, 4, 6), ("D", 5): (2, 4, 5, 6, 8),
    ("G", 2): (2, 6), ("F", 4): (2, 6, 8, 12),
}

IMPLEMENTED = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 4), ("E", 6), ("F", 4), ("G", 2),
]


class TestCartanData:
    def test_a2_matrix(self):
        assert cartan_data("A", 2).a == ((2, -1), (-1, 2))

    def test_b2_matrix_short_last_root(self):
        c = cartan_data("B", 2)
        assert c.a == ((2, -1), (-2, 2))
        assert c.bilinear(1, 1) == 4 and c.bilinear(2, 2) == 2
        assert c.bilinear(1, 2) == -2

    def test_a2_inverse(self):
        c = cartan_data("A", 2)
        assert c.b == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
        assert c.det_d == 3

    @pytest.mark.parametrize("family,rank", IMPLEMENTED)
    def test_inverse_and_symmetrizer(self, family, rank):
        c = cartan_data(family, rank)
        r = c.rank
        for i in range(r):
            for j in range(r):
                s = sum(F(c.a[i][k]) * c.b[k][j] for k in range(r))
                assert s == (1 if i == j else 0)
                assert c.d_sym[i] * c.a[i][j] == c.d_sym[j] * c.a[j][i]

    @pytest.mark.parametrize(
        "family,rank,det",
        [("A", r, r + 1) for r in (1, 2, 5, 12)]
        + [("B", r, 2) for r in (2, 3, 7)]
        + [("C", r, 2) for r in (2, 3, 7)]
        + [("D", r, 4) for r in (3, 4, 5, 9)]
        + [("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)],
    )
    def test_determinants(self, family, rank, det):
        assert cartan_data(family, rank).det_d == det

    def test_invalid_types_rejected(self):
        for family, rank in [("D", 2), ("E", 5), ("F", 3), ("G", 3), ("A", 0), ("X", 2)]:
            with pytest.raises(ValueError):
                cartan_data(family, rank)


class TestLanglandsDual:
    def test_a_self_dual(self):
        c = cartan_data("A", 3)
        assert langlands_dual(c).a == c.a

    def test_b2_to_c2(self):
        dual = langlands_dual(cartan_data("B", 2))
        assert dual.family == "C"
        assert dual.a == cartan_data("C", 2).a
        assert dual.d_sym == cartan_data("C", 2).d_sym

    @pytest.mark.parametrize("family,rank", IMPLEMENTED)
    def test_involution(self, family, rank):
        c = cartan_data(family, rank)
        assert langlands_dual(langlands_dual(c)) == c


class TestShiftedAction:
    def test_empty_word(self):
        c = cartan_data("B", 2)
        lam = weight([F(3, 7), F(-2)])
        assert shifted_action([], lam, c) == lam

    def test_sl2(self):
        c = cartan_data("A", 1)
        assert shifted_action([1], weight([0]), c) == (F(-2),)

    def test_a2(self):
        c = cartan_data("A", 2)
        assert shifted_action([1], weight([0, 0]), c) == (F(-2), F(1))

    def test_involution_and_braid(self):
        c = cartan_data("A", 2)
        rng = random.Random(11)
        for _ in range(50):
            lam = weight([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)])
            for i in (1, 2):
                assert shifted_action([i, i], lam, c) == lam
            assert shifted_action([1, 2, 1], lam, c) == shifted_action([2, 1, 2], lam, c)


class TestWeylLength:
    def test_squares_cancel(self):
        assert weyl_length([1, 1], cartan_data("A", 2)) == 0

    def test_longest_elements(self):
        assert weyl_length([1, 2, 1], cartan_data("A", 2)) == 3
        assert weyl_length([1, 2, 1, 2], cartan_data("B", 2)) == 4

    def test_orders(self):
        for (family, rank), order in WEYL_ORDERS.items():
            assert weyl_order(cartan_data(family, rank)) == order, (family, rank)

    @pytest.mark.parametrize("family,rank", sorted(WEYL_DEGREES))
    def test_length_histogram_is_poincare_polynomial(self, family, rank):
        # sum over W of q^length = prod_i (1 + q + ... + q^(d_i - 1)); its
        # degree, the longest length, is the number of positive roots
        poincare = [1]
        for d in WEYL_DEGREES[family, rank]:
            product = [0] * (len(poincare) + d - 1)
            for k, coeff in enumerate(poincare):
                for e in range(d):
                    product[k + e] += coeff
            poincare = product
        c = cartan_data(family, rank)
        histogram = Counter(weyl_length(w, c) for w in weyl_elements(c))
        assert [histogram[k] for k in range(len(poincare))] == poincare
        assert sum(histogram.values()) == sum(poincare)

    @pytest.mark.parametrize("letter", [0, -1, 3])
    def test_bad_letters_rejected(self, letter):
        c = cartan_data("A", 2)
        with pytest.raises(ValueError, match="out of range"):
            weyl_length([letter], c)
        with pytest.raises(ValueError, match="out of range"):
            weyl_action([1, letter], (1, 1), c)
        with pytest.raises(ValueError, match="out of range"):
            words_equal([letter], [], c)
        with pytest.raises(ValueError, match="out of range"):
            shifted_action([letter], weight([0, 0]), c)

    def test_bfs_order(self):
        c = cartan_data("A", 2)
        assert list(weyl_elements(c)) == [(), (1,), (2,), (2, 1), (1, 2), (1, 2, 1)]

    def test_enumeration_matches_length(self):
        c = cartan_data("B", 2)
        for word in weyl_elements(c):
            assert weyl_length(word, c) == len(word)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        family, rank = data.draw(st.sampled_from(sorted(WEYL_DEGREES)))
        c = cartan_data(family, rank)
        word = data.draw(st.lists(st.integers(1, rank), max_size=16))
        length = weyl_length(word, c)
        assert length <= len(word)
        assert length % 2 == len(word) % 2
        assert length == len(_bfs_words(family, rank)[weyl_action(word, (1,) * rank, c)])


@lru_cache(maxsize=None)
def _bfs_words(family, rank):
    """The BFS word of each element, keyed by the element's image of rho."""
    c = cartan_data(family, rank)
    return {weyl_action(w, (1,) * rank, c): w for w in weyl_elements(c)}


class TestDegreesFor:
    def test_identity_word(self):
        c = cartan_data("B", 2)
        weights = [weight([1, 0]), weight([0, 1])]
        assert degrees_for([], weights, (1, 1), c) == (1, 1)

    def test_sl2_two_singlets(self):
        c = cartan_data("A", 1)
        weights = [weight([1]), weight([1])]
        assert degrees_for([1], weights, (1,), c) == (2,)

    def test_a2_longest(self):
        c = cartan_data("A", 2)
        assert degrees_for([1, 2, 1], [], (0, 0), c) == (2, 2)

    def test_invalid_cell(self):
        c = cartan_data("A", 1)
        # l = (5) puts the weight at infinity below the anti-dominant wall,
        # so reflecting solves to a negative degree
        with pytest.raises(CellError):
            degrees_for([1], [weight([1]), weight([1])], (5,), c)

    @pytest.mark.parametrize("family,rank,weights", [("A", 2, [[1, 1]]), ("B", 2, [[2, 1]])])
    def test_left_step_changes_one_coordinate(self, family, rank, weights):
        c = cartan_data(family, rank)
        ws = [weight(w) for w in weights]
        for word in weyl_elements(c):
            base = degrees_for(word, ws, (0,) * rank, c)
            for i in range(1, rank + 1):
                extended = (i,) + tuple(word)
                degs = degrees_for(extended, ws, (0,) * rank, c)
                diffs = [j for j in range(rank) if degs[j] != base[j]]
                assert diffs == [] or diffs == [i - 1]
                if weyl_length(extended, c) == weyl_length(word, c) + 1:
                    assert degs[i - 1] > base[i - 1]


ORBIT_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


class TestShiftedOrbit:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_left_letter_is_shifted_reflection(self, data):
        family, rank = data.draw(st.sampled_from(ORBIT_TYPES))
        c = cartan_data(family, rank)
        coords = st.lists(st.integers(0, 2), min_size=rank, max_size=rank)
        ws = [weight(w) for w in data.draw(st.lists(coords, max_size=3))]
        word = data.draw(st.sampled_from(list(_bfs_words(family, rank).values())))
        i = data.draw(st.integers(1, rank))
        base = (0,) * rank  # the weight at infinity is dominant, so every l^w is a cell
        assert shifted_reflect_degrees(i, degrees_for(word, ws, base, c), ws, c) == degrees_for(
            (i,) + word, ws, base, c
        )

    @pytest.mark.parametrize(
        "family,rank,weights",
        [("A", 3, []), ("B", 2, [[1, 0], [0, 1]]), ("G", 2, [[1, 0], [0, 1]]), ("D", 4, [[0, 1, 0, 0]])],
    )
    def test_cell_table_is_degrees_for_over_weyl_elements(self, family, rank, weights):
        c = cartan_data(family, rank)
        ws = [weight(w) for w in weights]
        table = {degrees_for(w, ws, (0,) * rank, c): w for w in weyl_elements(c)}
        assert list(cell_words((0,) * rank, ws, c).items()) == list(table.items())


class TestWordEquality:
    def test_braid_words_equal(self):
        c = cartan_data("A", 2)
        assert words_equal([1, 2, 1], [2, 1, 2], c)
        assert not words_equal([1], [2], c)
        assert words_equal([1, 1], [], c)
