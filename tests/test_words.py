"""Word algebra: validation, enumeration, restriction, fills, profiles."""

import itertools
import math

import pytest
from hypothesis import given, settings

from bubblelattice.errors import (
    DuplicateLetter,
    NotIncreasing,
    OutOfAlphabet,
    Unrealizable,
    WordError,
)
from bubblelattice.words import (
    Letter,
    ShuffleWord,
    SupportProfile,
    count_shuffle,
    dualize,
    enumerate_shuffle,
    parse_word,
    profile,
    restriction,
    word_from_profile,
    word_text,
    x_fill,
    y_fill,
)

from conftest import (
    oracle_word_code,
    oracle_words,
    random_word,
    random_word_pair,
    splits,
)


def w(text, m, n):
    return parse_word(text, m, n)


class TestMakeWord:
    """Construction through the validating ShuffleWord constructor."""

    def test_valid_word(self):
        word = ShuffleWord((Letter.x(1), Letter.y(1), Letter.x(2)), 2, 1)
        assert word_text(word) == "x1.y1.x2"

    def test_empty_word_accepted(self):
        assert ShuffleWord((), 0, 0).letters == ()

    def test_x_out_of_order(self):
        with pytest.raises(NotIncreasing):
            ShuffleWord((Letter.x(2), Letter.x(1)), 2, 0)

    def test_y_out_of_order(self):
        with pytest.raises(NotIncreasing):
            ShuffleWord((Letter.y(2), Letter.x(1), Letter.y(1)), 1, 2)

    def test_duplicate(self):
        with pytest.raises(DuplicateLetter):
            ShuffleWord((Letter.x(1), Letter.y(1), Letter.x(1)), 2, 1)

    def test_out_of_alphabet(self):
        with pytest.raises(OutOfAlphabet):
            ShuffleWord((Letter.x(3),), 2, 1)
        with pytest.raises(OutOfAlphabet):
            ShuffleWord((Letter.y(1),), 2, 0)

    def test_parse_round_trip(self):
        for text in ["-", "x1", "x1.y1.x2", "y1.x1.x2"]:
            assert word_text(parse_word(text, 2, 1)) == text


X, Y = Letter.x, Letter.y
# letters, m, n -> the exception the constructor raises and its message;
# the last cases have two faults each, and the first letter's fault wins
MALFORMED = {
    "not_a_letter": ((("x1",), 1, 0), WordError, "not a letter: 'x1'"),
    "bad_tag": (((Letter("z", 1),), 1, 1), WordError, "not a letter: Letter(tag='z', index=1)"),
    "negative_m": (((), -1, 2), OutOfAlphabet, "alphabet sizes must be nonnegative, got m=-1 n=2"),
    "negative_n": (((X(1),), 1, -1), OutOfAlphabet, "alphabet sizes must be nonnegative, got m=1 n=-1"),
    "x_index_zero": (((Letter("x", 0),), 2, 1), OutOfAlphabet, "x0 outside alphabet for m=2, n=1"),
    "y_index_zero": (((X(1), Letter("y", 0)), 2, 1), OutOfAlphabet, "y0 outside alphabet for m=2, n=1"),
    "x_above_alphabet": (((X(3),), 2, 1), OutOfAlphabet, "x3 outside alphabet for m=2, n=1"),
    "y_above_alphabet": (((X(1), Y(1), Y(2)), 2, 1), OutOfAlphabet, "y2 outside alphabet for m=2, n=1"),
    "x_duplicate": (((X(1), Y(1), X(1)), 2, 1), DuplicateLetter, "duplicate letter x1"),
    "y_duplicate": (((Y(2), X(1), Y(2)), 1, 2), DuplicateLetter, "duplicate letter y2"),
    "x_out_of_order": (((X(2), X(1)), 2, 0), NotIncreasing, "x-letters out of order at x1"),
    "y_out_of_order": (((Y(2), X(1), Y(1)), 1, 2), NotIncreasing, "y-letters out of order at y1"),
    "order_before_duplicate": (((Y(1), X(2), X(1), Y(1)), 2, 1), NotIncreasing, "x-letters out of order at x1"),
    "order_before_alphabet": (((X(2), X(1), X(3)), 2, 0), NotIncreasing, "x-letters out of order at x1"),
    "sizes_before_letters": ((("x1",), -1, 0), OutOfAlphabet, "alphabet sizes must be nonnegative, got m=-1 n=0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_word_error(case):
    args, kind, message = MALFORMED[case]
    with pytest.raises(WordError) as exc:
        ShuffleWord(*args)
    assert type(exc.value) is kind
    assert str(exc.value) == message


class TestCode:
    """``code`` and the views read from it, against a letter-by-letter walk."""

    @staticmethod
    def views(u):
        return u.xsupport, u.ysupport, u.inversions, u.code

    @pytest.mark.parametrize("m,n", splits(5))
    def test_exhaustive(self, m, n):
        for letters in oracle_words(m, n):
            u = ShuffleWord(letters, m, n)
            assert self.views(u) == oracle_word_code(u)

    @given(random_word(max_m=12, max_n=12))
    def test_large_alphabets(self, u):
        assert self.views(u) == oracle_word_code(u)


# Frozen 12-row table for the (2,1) family: word and inversion set.
TABLE_21 = {
    "-": set(),
    "x1": set(),
    "x2": set(),
    "y1": set(),
    "x1.x2": set(),
    "x1.y1": set(),
    "x2.y1": set(),
    "y1.x1": {(1, 1)},
    "y1.x2": {(2, 1)},
    "x1.x2.y1": set(),
    "x1.y1.x2": {(2, 1)},
    "y1.x1.x2": {(1, 1), (2, 1)},
}


class TestEnumerate:
    def test_family_21_matches_table(self):
        words = enumerate_shuffle(2, 1)
        assert {word_text(u): set(u.inversions) for u in words} == TABLE_21

    def test_empty_family(self):
        words = enumerate_shuffle(0, 0)
        assert [word_text(u) for u in words] == ["-"]

    def test_canonical_order_is_sorted(self):
        # the search emits the words in order, with no sort
        for m, n in itertools.product(range(6), repeat=2):
            keys = [u.sort_key for u in enumerate_shuffle(m, n)]
            assert keys == sorted(keys), (m, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3), (3, 2)])
    def test_set_matches_interleaving_oracle(self, m, n):
        ours = {u.letters for u in enumerate_shuffle(m, n)}
        assert ours == oracle_words(m, n)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("n", range(6))
    def test_count_matches_binomial_sum(self, m, n):
        expected = sum(
            math.comb(m, a) * math.comb(n, b) * math.comb(a + b, a)
            for a in range(m + 1)
            for b in range(n + 1)
        )
        assert len(enumerate_shuffle(m, n)) == expected == count_shuffle(m, n)


class TestRestriction:
    def test_worked_example(self):
        u = w("x1.y1.x2.x3.y3", 4, 3)
        v = w("x3.y1.x4", 4, 3)
        assert word_text(restriction(u, v)) == "y1.x3"

    def test_identity(self):
        u = w("x1.y1.x2", 2, 1)
        assert restriction(u, u) == u

    def test_empty(self):
        u = w("x1.y1.x2", 2, 1)
        assert restriction(u, w("-", 2, 1)).letters == ()

    @given(random_word_pair())
    def test_idempotent_in_second_argument(self, pair):
        u, v = pair
        once = restriction(u, v)
        assert restriction(once, v) == once


class TestInversions:
    def test_table_rows(self):
        assert w("y1.x1.x2", 2, 1).inversions == {(1, 1), (2, 1)}
        assert w("x1.x2.y1", 2, 1).inversions == set()
        assert w("x1.y1.x2", 2, 1).inversions == {(2, 1)}


class TestFills:
    def test_y_fill_inserts_rightmost(self):
        u = w("x2.x3.y1.y3.x4.y5.x5", 5, 6)
        assert word_text(y_fill(u)) == "x2.x3.y1.y2.y3.x4.y4.y5.x5.y6"

    def test_y_fill_fixed_point(self):
        u = w("y1.x1.y2", 1, 2)
        assert y_fill(u) == u

    def test_y_fill_empty(self):
        assert word_text(y_fill(w("-", 0, 2))) == "y1.y2"

    def test_x_fill_empty(self):
        assert word_text(x_fill(w("-", 2, 0))) == "x1.x2"

    def test_x_fill_fixed_point(self):
        u = w("x1.y1.x2", 2, 1)
        assert x_fill(u) == u

    @given(random_word())
    def test_fill_duality(self, u):
        assert dualize(x_fill(u)) == y_fill(dualize(u))

    @given(random_word())
    def test_y_fill_contains_all_y(self, u):
        assert y_fill(u).ysupport == tuple(range(1, u.n + 1))


class TestDualize:
    def test_example(self):
        u = w("x1.y1.x2", 2, 1)
        d = dualize(u)
        assert word_text(d) == "y1.x1.y2" and (d.m, d.n) == (1, 2)

    def test_empty(self):
        assert dualize(w("-", 2, 1)) == w("-", 1, 2)

    @given(random_word())
    def test_involution(self, u):
        assert dualize(dualize(u)) == u

    @given(random_word())
    def test_inversion_complement(self, u):
        # a pair inverts in the dual exactly when the swapped pair does not
        # invert in the original, over the dual word's own supports
        d = dualize(u)
        expected = {
            (s, t)
            for s in d.xsupport
            for t in d.ysupport
            if (t, s) not in u.inversions
        }
        assert set(d.inversions) == expected


class TestProfiles:
    def test_worked_example(self):
        p = SupportProfile(
            (4, 5), (1, 3, 4, 5),
            frozenset({(4, 1), (4, 3), (5, 1), (5, 3), (5, 4)}),
            5, 5,
        )
        assert word_text(word_from_profile(p)) == "y1.y3.x4.y4.x5.y5"

    def test_x_only(self):
        p = SupportProfile((1, 2), (), frozenset(), 2, 0)
        assert word_text(word_from_profile(p)) == "x1.x2"

    def test_unrealizable_not_suffix(self):
        p = SupportProfile((1, 2), (1,), frozenset({(1, 1)}), 2, 1)
        with pytest.raises(Unrealizable):
            word_from_profile(p)

    def test_unrealizable_rows_grow(self):
        p = SupportProfile((1, 2), (1, 2), frozenset({(2, 2)}), 2, 2)
        with pytest.raises(Unrealizable):
            word_from_profile(p)

    @pytest.mark.parametrize("m,n", splits(7))
    def test_round_trip_exhaustive(self, m, n):
        for u in enumerate_shuffle(m, n):
            assert word_from_profile(profile(u)) == u

    @given(random_word())
    @settings(max_examples=200)
    def test_actual_profiles_always_realizable(self, u):
        assert word_from_profile(profile(u)) == u
