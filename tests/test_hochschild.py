"""Triwords, the componentwise lattice, and the single-y encoding."""

import pytest

from bubblelattice.errors import InvalidTriword, WrongFamily
from bubblelattice.hochschild import (
    Triword,
    enumerate_triwords,
    hochschild_lattice,
    sigma_tilde,
    verify_hochschild_iso,
)
from bubblelattice.posets import FinitePoset, is_extremal, is_lattice, is_semidistributive
from bubblelattice.words import parse_word


def w(text, m, n):
    return parse_word(text, m, n)


class TestTriword:
    def test_valid(self):
        assert Triword((1, 0, 2)).entries == (1, 0, 2)

    def test_rejects_leading_two(self):
        with pytest.raises(InvalidTriword):
            Triword((2, 0))

    def test_rejects_one_after_zero(self):
        with pytest.raises(InvalidTriword):
            Triword((0, 1))
        with pytest.raises(InvalidTriword):
            Triword((1, 0, 2, 1))

    def test_rejects_alien_entries(self):
        with pytest.raises(InvalidTriword):
            Triword((3,))


class TestEnumerate:
    def test_small(self):
        assert {t.entries for t in enumerate_triwords(1)} == {(0,), (1,)}

    def test_twelve_triwords_of_length_three(self):
        got = {t.entries for t in enumerate_triwords(3)}
        assert got == {
            (0, 0, 0), (0, 0, 2), (0, 2, 0), (0, 2, 2),
            (1, 0, 0), (1, 0, 2), (1, 1, 0), (1, 1, 1),
            (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2),
        }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_formula(self, n):
        assert len(enumerate_triwords(n)) == 2 ** (n - 2) * (n + 3)


class TestLattice:
    def test_is_lattice(self):
        for n in (1, 2, 3, 4):
            _, P = hochschild_lattice(n)
            assert is_lattice(P)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_extremal_and_semidistributive(self, n):
        _, P = hochschild_lattice(n)
        assert is_extremal(P)
        assert is_semidistributive(P)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_covers_change_one_coordinate(self, n):
        tris, P = hochschild_lattice(n)
        for a, b in P.edges():
            diffs = [
                i
                for i, (x, y) in enumerate(zip(tris[a].entries, tris[b].entries))
                if x != y
            ]
            assert len(diffs) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_order_equals_componentwise_lambda(self, n):
        tris, P = hochschild_lattice(n)
        Q = FinitePoset.from_leq(
            len(tris),
            lambda i, j: all(a <= b for a, b in zip(tris[i].entries, tris[j].entries)),
        )
        assert P.edges() == Q.edges()


# the encoding table for tuple length 3, one row per word of the (2,1) family
SIGMA_3 = {
    "x1.x2": (0, 0, 0),
    "x1": (0, 2, 0),
    "x2": (0, 0, 2),
    "-": (0, 2, 2),
    "y1.x1": (1, 2, 1),
    "x1.y1": (1, 2, 0),
    "y1.x2": (1, 1, 2),
    "x2.y1": (1, 0, 2),
    "x1.x2.y1": (1, 0, 0),
    "x1.y1.x2": (1, 1, 0),
    "y1.x1.x2": (1, 1, 1),
    "y1": (1, 2, 2),
}


class TestSigma:
    def test_table_for_length_three(self, bubble):
        family = bubble(2, 1)
        got = {str(u): sigma_tilde(u, 3).entries for u in family.words}
        assert got == SIGMA_3

    def test_long_example(self):
        u = w("x2.x4.x5.y1.x8", 8, 1)
        assert sigma_tilde(u, 9).entries == (1, 1, 2, 2, 0, 0, 2, 0, 2)

    def test_leading_y_fills_everything(self):
        assert sigma_tilde(w("y1.x1.x2", 2, 1), 3).entries == (1, 1, 1)

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            sigma_tilde(w("x1", 2, 2), 3)
        with pytest.raises(WrongFamily):
            sigma_tilde(w("x1", 1, 1), 3)


class TestIsomorphism:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_verify(self, n, bubble):
        assert verify_hochschild_iso(bubble(n - 1, 1))

    def test_two_element_chains(self, bubble):
        family = bubble(0, 1)
        _, P = hochschild_lattice(1)
        assert len(family.words) == P.n == 2

    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_match(self, n, bubble):
        family = bubble(n - 1, 1)
        assert len(family.words) == len(enumerate_triwords(n))


class TestRealizationHook:
    def test_sigma_vectors_realize_single_y_family(self, bubble):
        family = bubble(3, 1)
        vectors = [sigma_tilde(u, 4).entries for u in family.words]
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert all(x <= y for x, y in zip(a, b)) == family.poset.leq(i, j)
