"""Generic poset engine: lattices, irreducibles, labels, crowns, doubling."""

import functools
import inspect
import re
import sys
import textwrap
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from bubblelattice import checks, posets
from bubblelattice.bubble import build_bubble_lattice, extremal_chain_words
from bubblelattice.errors import KappaMissing, NotALattice, NotJoinSemidistributive
from bubblelattice.hochschild import hochschild_lattice
from bubblelattice.labeling import build_label_poset, edge_labels, verify_cu_labeling
from bubblelattice.posets import (
    FinitePoset,
    atoms,
    doubling,
    find_crown,
    is_distributive,
    is_extremal,
    is_join_semidistributive,
    is_lattice,
    is_left_modular_chain,
    is_meet_semidistributive,
    is_semidistributive,
    is_trim,
    join_irreducibles,
    kappa,
    lambda_jsd,
    lattice_tables,
    left_modular_chain,
    meet_irreducibles,
    polygonal_intervals,
)

from conftest import (
    closure_lattices,
    is_isomorphic,
    mask_matrix,
    oracle_certified_tables,
    oracle_join_witness,
    oracle_lattice_tables,
    oracle_lambda_jsd,
    oracle_kappa,
    oracle_left_modular_test,
    oracle_polygonal_intervals,
    oracle_reduction,
    semidistributive_half,
    splits,
)


def chain_poset(k):
    return FinitePoset(k + 1, [(i, i + 1) for i in range(k)])


def boolean_poset(n):
    return FinitePoset.from_leq(2 ** n, lambda i, j: i & j == i)


def m3():
    # bottom 0, three atoms, top 4
    return FinitePoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5():
    # bottom 0; short side 1; long side 2 < 3; top 4
    return FinitePoset(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


class TestFinitePoset:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            FinitePoset(2, [(0, 1), (1, 0)])

    def test_rejects_non_cover_edge(self):
        with pytest.raises(ValueError):
            FinitePoset(3, [(0, 1), (1, 2), (0, 2)])

    def test_leq_and_length(self):
        P = chain_poset(3)
        assert P.leq(0, 3) and not P.leq(3, 0)
        assert P.length() == 3

    def test_from_leq_reduces(self):
        P = FinitePoset.from_leq(3, lambda i, j: i <= j)
        assert set(P.edges()) == {(0, 1), (1, 2)}

    def test_dual(self):
        P = n5()
        assert set(P.dual().edges()) == {(b, a) for a, b in P.edges()}

    def test_subposet(self):
        P = boolean_poset(3)
        sub = P.subposet([0, 1, 3, 7])
        assert sub.length() == 3 and len(sub.edges()) == 3

    def test_dot_export(self):
        dot = chain_poset(1).to_dot(labels=["a", "b"])
        assert "rankdir=BT" in dot and 'n0 [label="a"]' in dot and "n0 -> n1" in dot

    def test_covers_json(self):
        assert chain_poset(1).covers_json() == '{"n": 2, "covers": [[0, 1]]}'


class TestLattice:
    def test_bubble_21_is_lattice(self, bubble):
        assert is_lattice(bubble(2, 1).poset)

    def test_two_maximal_elements_is_not(self):
        P = FinitePoset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert is_lattice(P)
        Q = FinitePoset(3, [(0, 1), (0, 2)])
        assert not is_lattice(Q)

    def test_tables_match_bitmask_definitions(self, bubble):
        P = bubble(2, 1).poset
        join, meet = lattice_tables(P)
        for a in range(P.n):
            for b in range(P.n):
                ups = [c for c in range(P.n) if P.leq(a, c) and P.leq(b, c)]
                assert join[a, b] in ups
                assert all(P.leq(join[a, b], c) for c in ups)
                downs = [c for c in range(P.n) if P.leq(c, a) and P.leq(c, b)]
                assert all(P.leq(c, meet[a, b]) for c in downs)

    @pytest.mark.parametrize("make", [lambda: boolean_poset(4), m3, n5])
    def test_absorption_and_associativity(self, make):
        P = make()
        join, meet = lattice_tables(P)
        n = P.n
        for a in range(n):
            for b in range(n):
                assert join[a, meet[a, b]] == a
                assert meet[a, join[a, b]] == a
        for a in range(n):
            # (a v b) v c == a v (b v c), as full (b, c) tables per a
            assert np.array_equal(join[join[a], :], join[a][join])
            assert np.array_equal(meet[meet[a], :], meet[a][meet])


class TestIrreducibles:
    def test_bubble_21_counts(self, bubble):
        P = bubble(2, 1).poset
        assert len(join_irreducibles(P)) == 5 == len(meet_irreducibles(P))

    @pytest.mark.parametrize("m,n", splits(5))
    def test_equal_counts_on_bubble(self, m, n, bubble):
        P = bubble(m, n).poset
        assert len(join_irreducibles(P)) == len(meet_irreducibles(P))

    def test_boolean_atoms(self):
        P = boolean_poset(3)
        assert sorted(join_irreducibles(P)) == [1, 2, 4]


def one_sided():
    # 5 v 3 = 5 v 4 = 6, but 5 v (3 ^ 4) = 5 v 0 = 5: meet-SD only
    return FinitePoset(
        7, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]
    )


def assert_kappa_halves_match_triple_scan(P):
    join, meet = lattice_tables(P)
    assert is_join_semidistributive(P) == semidistributive_half(join, meet)
    assert is_meet_semidistributive(P) == semidistributive_half(meet, join)


def assert_kappa_is_the_scan(P):
    """kappa at every join-irreducible and the dual kappa at every
    meet-irreducible equal the scan of ``oracle_kappa``."""
    for dual, irreducibles in ((False, join_irreducibles(P)), (True, meet_irreducibles(P))):
        assert [posets._kappa(P, j, dual) for j in irreducibles] == [oracle_kappa(P, j, dual) for j in irreducibles]


class TestKappaByPosition:
    @pytest.mark.parametrize("m,n", splits(7))
    def test_bubble(self, m, n, bubble):
        assert_kappa_is_the_scan(bubble(m, n).poset)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hochschild(self, n):
        assert_kappa_is_the_scan(hochschild_lattice(n)[1])

    @given(closure_lattices())
    @example(n5())
    @example(one_sided())
    @example(one_sided().dual())
    def test_random_lattices(self, P):
        assert_kappa_is_the_scan(P)

    def test_m3_has_none(self):
        P = m3()
        assert_kappa_is_the_scan(P)
        assert [posets._kappa(P, j) for j in (1, 2, 3)] == [None] * 3


class TestSemidistributivity:
    def test_bubble_22(self, bubble):
        assert is_semidistributive(bubble(2, 2).poset)

    def test_m3_fails(self):
        assert not is_join_semidistributive(m3())
        assert not is_semidistributive(m3())

    def test_one_sided(self):
        P = one_sided()
        assert is_meet_semidistributive(P) and not is_join_semidistributive(P)
        assert is_join_semidistributive(P.dual()) and not is_meet_semidistributive(P.dual())

    def test_chain(self):
        assert is_semidistributive(chain_poset(4))

    def test_n5_is_semidistributive(self):
        assert is_semidistributive(n5())

    @given(closure_lattices())
    @example(m3())
    @example(n5())
    @example(one_sided())
    @example(one_sided().dual())
    def test_kappa_against_triple_scan_on_random_lattices(self, P):
        assert_kappa_halves_match_triple_scan(P)

    @pytest.mark.parametrize("m,n", splits(5))
    def test_kappa_against_triple_scan_on_bubble(self, m, n, bubble):
        assert_kappa_halves_match_triple_scan(bubble(m, n).poset)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_kappa_against_triple_scan_on_hochschild(self, n):
        assert_kappa_halves_match_triple_scan(hochschild_lattice(n)[1])

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_kappa_is_greatest_above_lower_cover_not_above_j(self, m, n, bubble):
        P = bubble(m, n).poset
        for j in join_irreducibles(P):
            (lower,) = P.down_adj[j]
            avoid = [x for x in range(P.n) if P.leq(lower, x) and not P.leq(j, x)]
            greatest = [x for x in avoid if all(P.leq(y, x) for y in avoid)]
            assert [kappa(P, j)] == greatest

    def test_kappa_needs_a_join_irreducible(self):
        with pytest.raises(ValueError):
            kappa(n5(), 4)

    @pytest.mark.parametrize(
        "make", [lambda: boolean_poset(3), n5, lambda: chain_poset(3)]
    )
    def test_equal_irreducible_counts_when_sd(self, make):
        P = make()
        assert is_semidistributive(P)
        assert len(join_irreducibles(P)) == len(meet_irreducibles(P))


def canonical_joinands(P, p):
    """The labels of the edges entering p: its canonical join representation."""
    return frozenset(lambda_jsd(P, (q, p)) for q in P.down_adj[p])


def is_perspective(P, e1, e2):
    """Edges [p, q] and [p2, q2] of a lattice with q v p2 = q2 and
    q ^ p2 = p, or the same with the two edges exchanged."""
    join, meet = lattice_tables(P)

    def half(a, b, c, d) -> bool:
        return join[b, c] == d and meet[b, c] == a

    return half(*e1, *e2) or half(*e2, *e1)


def jsd_outcomes(P, label=lambda_jsd):
    """The label of every edge, None where NotJoinSemidistributive is raised."""
    out = []
    for e in P.edges():
        try:
            out.append(label(P, e))
        except NotJoinSemidistributive:
            out.append(None)
    return out


def greatest_candidate(P, edge):
    """A wrong jsd label: the candidate of greatest height."""
    p, q = edge
    candidates = [j for j in join_irreducibles(P) if P.leq(j, q) and not P.leq(j, p)]
    return max(candidates, key=P.height_below.__getitem__)


# M3 stacked on a one-element chain: the x with 2 ∨ x = 5 are 3, 4 and 5,
# whose meet, 1, is not one of them, as 2 ∨ 1 = 2
M3_ON_A_CHAIN = FinitePoset(6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])


class TestJsdLabeling:
    def test_bottom_edge_label(self, bubble):
        family = bubble(2, 1)
        bottom = family.poset.bottom()
        target = family.index(next(u for u in family.words if str(u) == "x1.x2.y1"))
        assert lambda_jsd(family.poset, (bottom, target)) == target

    def test_irreducible_edge_labels_itself(self, bubble):
        P = bubble(2, 1).poset
        for j in join_irreducibles(P):
            assert lambda_jsd(P, (P.down_adj[j][0], j)) == j

    @pytest.mark.parametrize("m,n", splits(5))
    def test_least_candidate_is_the_meet_reduce(self, m, n, bubble):
        P = bubble(m, n).poset
        assert [lambda_jsd(P, e) for e in P.edges()] == [oracle_lambda_jsd(P, e) for e in P.edges()]

    def test_least_candidate_is_the_meet_reduce_on_n5(self):
        P = n5()
        assert [lambda_jsd(P, e) for e in P.edges()] == [oracle_lambda_jsd(P, e) for e in P.edges()]

    def test_m3_rejected(self):
        P = m3()
        with pytest.raises(NotJoinSemidistributive):
            for e in P.edges():
                lambda_jsd(P, e)

    def test_oracle_rejects_a_meet_that_is_no_candidate(self):
        with pytest.raises(NotJoinSemidistributive, match="no least candidate"):
            oracle_lambda_jsd(M3_ON_A_CHAIN, (2, 5))
        with pytest.raises(NotJoinSemidistributive):
            lambda_jsd(M3_ON_A_CHAIN, (2, 5))

    @given(closure_lattices())
    @example(M3_ON_A_CHAIN)
    def test_join_irreducible_route_is_the_meet_reduce(self, P):
        assert jsd_outcomes(P) == jsd_outcomes(P, oracle_lambda_jsd)

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_greatest_candidate_is_caught(self, m, n, bubble):
        P = bubble(m, n).poset
        assert jsd_outcomes(P, greatest_candidate) != jsd_outcomes(P, oracle_lambda_jsd)

    def test_non_cover_and_non_lattice(self):
        with pytest.raises(ValueError, match="not a cover"):
            lambda_jsd(n5(), (0, 3))
        with pytest.raises(NotALattice):
            lambda_jsd(FinitePoset(3, [(0, 2), (1, 2)]), (0, 2))

    def test_canonical_join_reps(self, bubble):
        family = bubble(2, 2)
        P = family.poset
        join, _ = lattice_tables(P)
        for p in range(P.n):
            rep = canonical_joinands(P, p)
            acc = P.bottom()
            for r in rep:
                acc = int(join[acc, r])
            assert acc == p
        assert canonical_joinands(P, P.bottom()) == frozenset()
        for j in join_irreducibles(P):
            assert canonical_joinands(P, j) == {j}

    def test_canonical_rep_refines_irredundant_reps(self, bubble):
        from itertools import combinations

        family = bubble(2, 1)
        P = family.poset
        join, _ = lattice_tables(P)

        def join_all(xs):
            acc = P.bottom()
            for x in xs:
                acc = int(join[acc, x])
            return acc

        for p in range(P.n):
            can = canonical_joinands(P, p)
            for size in (1, 2, 3):
                for xs in combinations(range(P.n), size):
                    if join_all(xs) != p:
                        continue
                    if any(join_all(set(xs) - {x}) == p for x in xs):
                        continue  # redundant
                    assert all(any(P.leq(c, x) for x in xs) for c in can)


class TestPerspectivity:
    def test_label_iff_perspective_to_irreducible_edge(self, bubble):
        P = bubble(2, 1).poset
        for e in P.edges():
            lab = lambda_jsd(P, e)
            for j in join_irreducibles(P):
                expected = j == lab
                assert is_perspective(P, e, (P.down_adj[j][0], j)) == expected

    def test_equal_labels_iff_mutually_perspective_to_same(self, bubble):
        for m, n in [(2, 1), (2, 2)]:
            P = bubble(m, n).poset
            edges = P.edges()
            labels = {e: lambda_jsd(P, e) for e in edges}
            for e1 in edges:
                for e2 in edges:
                    j = labels[e1]
                    je = (P.down_adj[j][0], j)
                    if labels[e1] == labels[e2]:
                        assert is_perspective(P, e2, je)


class TestExtremal:
    def test_boolean_22(self):
        assert is_extremal(boolean_poset(2))

    def test_m3_not_extremal(self):
        assert not is_extremal(m3())

    @pytest.mark.parametrize("m,n", splits(4))
    def test_bubble_families(self, m, n, bubble):
        P = bubble(m, n).poset
        assert is_extremal(P)
        assert P.length() == m * n + m + n

    def test_longer_than_its_join_irreducibles(self):
        # length 2 with one join-irreducible and three meet-irreducibles: not
        # a lattice, and not extremal
        P = FinitePoset(4, [(0, 1), (1, 2), (3, 2)])
        assert P.length() == 2 and len(join_irreducibles(P)) == 1
        assert not is_extremal(P)


def test_chain_test_needs_no_square_temporaries(bubble):
    # the two edge arrays and a few gathers over them per element: 0.36 MiB,
    # 49 bytes per edge, at (4,4), where the full-matrix test peaked at
    # 35 MiB and its row blocks at 6 MiB
    family = bubble(4, 4)
    P = family.poset
    lattice_tables(P)
    chain = [family.index(w) for w in extremal_chain_words(4, 4)]
    tracemalloc.start()
    try:
        assert is_left_modular_chain(P, chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(P.edges())


def test_irreducibles_check_unpacks_only_their_rows(bubble):
    # the up-set rows of the 24 join-irreducibles at (4,4), 24 x 1,921
    # bools, where an N x N bool matrix of the order is N^2 bytes
    P = bubble(4, 4).poset
    fresh = FinitePoset(P.n, P.edges())
    lattice_tables(fresh)
    tracemalloc.start()
    try:
        result = checks.check_irreducibles_poset(types.SimpleNamespace(poset=fresh, m=4, n=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok and peak < fresh.n**2 / 8


def left_modular_flags(P):
    """The left-modularity test of every element, on the covers."""
    return list(map(posets._left_modular_test(P), range(P.n)))


class TestTrim:
    def test_chain_is_trim(self):
        assert is_trim(chain_poset(5))

    def test_bubble_22(self, bubble):
        assert is_trim(bubble(2, 2).poset)

    def test_m3_not_trim(self):
        assert not is_trim(m3())

    def test_left_modular_chain_full_length(self, bubble):
        P = bubble(2, 1).poset
        chain = left_modular_chain(P)
        assert chain is not None and len(chain) == P.length() + 1

    @given(closure_lattices())
    # N5 relabelled so that its one failing element, the lower element of
    # the long side, is the first id or the last
    @example(FinitePoset(5, [(1, 0), (0, 3), (1, 4), (3, 2), (4, 2)]))
    @example(FinitePoset(5, [(0, 4), (4, 3), (0, 1), (3, 2), (1, 2)]))
    def test_cover_test_is_the_full_matrix_oracle(self, P):
        assert left_modular_flags(P) == list(map(oracle_left_modular_test(P), range(P.n)))

    @pytest.mark.parametrize("conjunct", [0, 1])
    @pytest.mark.parametrize("make", [n5, m3, lambda: build_bubble_lattice(2, 1).poset])
    def test_cover_test_without_a_conjunct_is_caught(self, make, conjunct, monkeypatch):
        # without "x ∧ z ≤ y" the top fails on every cover, and without
        # "z ≤ y ∨ x" the bottom does; both are left modular
        P = make()
        dropped = types.SimpleNamespace(**{**vars(np), "logical_and": lambda *both: both[conjunct]})
        monkeypatch.setattr(posets, "np", dropped)
        assert left_modular_flags(P) != list(map(oracle_left_modular_test(P), range(P.n)))

    @pytest.mark.parametrize("m,n", splits(5))
    def test_chain_test_is_the_element_tests(self, m, n, bubble):
        family = bubble(m, n)
        P = family.poset
        flags = list(map(oracle_left_modular_test(P), range(P.n)))
        assert left_modular_flags(P) == flags
        paper = [family.index(w) for w in extremal_chain_words(m, n)]
        for chain in (paper, paper[::-1]):
            covers = all(b in P.up_adj[a] for a, b in zip(chain, chain[1:]))
            want = len(chain) == P.length() + 1 and covers and all(flags[p] for p in chain)
            assert is_left_modular_chain(P, chain) == want
        assert is_left_modular_chain(P, paper)


class TestDoubling:
    def test_by_empty_set(self):
        P = n5()
        assert is_isomorphic(doubling(P, []), P) is not None

    def test_two_chain_by_top(self):
        P = chain_poset(1)
        D = doubling(P, [1])
        assert is_isomorphic(D, chain_poset(2)) is not None

    def test_lattice_by_interval_is_lattice(self, bubble):
        P = bubble(2, 1).poset
        join, meet = lattice_tables(P)
        lo, hi = 3, 9
        if not P.leq(lo, hi):
            lo, hi = P.bottom(), P.top()
        interval = [i for i in range(P.n) if P.leq(lo, i) and P.leq(i, hi)]
        assert is_lattice(doubling(P, interval))
        assert is_lattice(doubling(boolean_poset(2), [0, 1]))


class TestCrown:
    def test_bubble_21_three_crown(self, bubble):
        family = bubble(2, 1)
        witness = find_crown(family.poset)
        names = lambda ids: {str(family.words[i]) for i in ids}
        assert names(witness.atoms) == {"x1", "x2", "x1.x2.y1"}
        assert names(witness.kappas) == {"y1.x1", "y1.x2", "-"}

    def test_boolean_two_crown_is_degenerate(self):
        P = boolean_poset(2)
        witness = find_crown(P)
        assert witness.size == 2
        # with two atoms the kappas are the opposite atoms
        assert set(witness.kappas) == set(atoms(P))

    def test_crown_cover_pattern(self, bubble):
        P = bubble(2, 2).poset
        witness = find_crown(P)
        sub = P.subposet(list(witness.atoms) + list(witness.kappas))
        k = witness.size
        for i in range(k):
            for j in range(k):
                assert sub.leq(i, k + j) == (i != j)
        assert set(sub.edges()) == {(i, k + j) for i in range(k) for j in range(k) if i != j}

    def test_m3_has_kappa_failure(self):
        with pytest.raises(KappaMissing):
            find_crown(m3())


class TestIsomorphism:
    def test_reflexive(self, bubble):
        P = bubble(2, 1).poset
        assert is_isomorphic(P, P) == list(range(P.n))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_isomorphic(chain_poset(1), chain_poset(2))

    def test_rejects_non_isomorphic(self):
        assert is_isomorphic(m3(), n5()) is None

    def test_bubble_21_vs_triword_lattice(self, bubble):
        from bubblelattice.hochschild import hochschild_lattice

        _, H = hochschild_lattice(3)
        assert is_isomorphic(bubble(2, 1).poset, H) is not None

    def test_anti_isomorphism_of_dual_families(self, bubble):
        assert is_isomorphic(bubble(2, 1).poset, bubble(1, 2).poset.dual()) is not None
        assert is_isomorphic(bubble(2, 1).poset, bubble(1, 2).poset) is None


class TestDistributive:
    def test_chain(self):
        assert is_distributive(chain_poset(3))

    def test_n5_fails(self):
        assert not is_distributive(n5())

    def test_m3_fails(self):
        assert not is_distributive(m3())

    def test_boolean(self):
        assert is_distributive(boolean_poset(3))


@st.composite
def random_poset(draw, max_n: int = 7):
    """A random poset as the closure of random edges on an integer DAG."""
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda p: (min(p), max(p))
            ).filter(lambda p: p[0] != p[1]),
            max_size=2 * n,
        )
    )
    masks = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            merged = masks[a] | masks[b]
            if merged != masks[a]:
                masks[a] = merged
                changed = True
    return FinitePoset.from_matrix(mask_matrix(masks)), masks


class TestEngineAgainstNaiveDefinitions:
    """Random posets: the bitmask engine vs direct quantifier evaluation."""

    @given(random_poset())
    def test_covers_are_transitive_reduction(self, data):
        P, masks = data
        n = P.n

        def naive_leq(i, j):
            return bool(masks[i] >> j & 1)

        naive_covers = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j
            and naive_leq(i, j)
            and not any(naive_leq(i, k) and naive_leq(k, j) for k in range(n) if k not in (i, j))
        }
        assert set(P.edges()) == naive_covers
        for i in range(n):
            for j in range(n):
                assert P.leq(i, j) == naive_leq(i, j)
        assert (posets._matrix(P.up) == mask_matrix(list(P.up))).all()

    @given(random_poset())
    def test_tables_when_lattice(self, data):
        P, _ = data
        if not is_lattice(P):
            return
        join, meet = lattice_tables(P)
        want_join, want_meet = oracle_lattice_tables(P)
        assert (join == want_join).all() and (meet == want_meet).all()

    @given(random_poset())
    def test_one_pass_equals_two_passes(self, data):
        """The down-sets and heights from the up pass's topological order
        equal a second ``_reach`` on the lower covers and the longest
        chains below and above each element, by recursion."""
        P, _ = data
        topo, up = posets._reach(P.n, P.up_adj)
        _, down = posets._reach(P.n, P.down_adj)

        @functools.cache
        def height(i, adj):
            return max((height(j, adj) + 1 for j in adj[i]), default=0)

        assert (P.topo, P.up, P.down) == (tuple(topo), tuple(up), tuple(down))
        assert P.height_below == tuple(height(i, P.down_adj) for i in range(P.n))
        assert P.depth_above == tuple(height(i, P.up_adj) for i in range(P.n))

    @given(random_poset(max_n=6))
    def test_length_is_longest_chain(self, data):
        P, _ = data
        best = 0
        for a in range(P.n):
            stack = [(a, 1)]
            while stack:
                v, depth = stack.pop()
                best = max(best, depth - 1)
                for w in P.up_adj[v]:
                    stack.append((w, depth + 1))
        assert P.length() == best


class TestHasse:
    @given(random_poset())
    @example((FinitePoset(0, []), []))
    @example((FinitePoset(5, [(0, 3), (3, 4)]), None))  # 1 and 2 isolated
    def test_arrays_are_the_cover_lists(self, data):
        P, _ = data
        for dual, adj in ((False, P.up_adj), (True, P.down_adj)):
            rows, lows, highs = P.hasse(dual)
            width = max(map(len, adj), default=0) or 1
            assert rows.shape == (P.n, width) and rows.dtype == lows.dtype == highs.dtype == np.intp
            assert rows.tolist() == [[*covers] + [-1] * (width - len(covers)) for covers in adj]
            assert list(zip(lows.tolist(), highs.tolist())) == [(a, b) for a in range(P.n) for b in adj[a]]
            assert not (rows.flags.writeable or lows.flags.writeable or highs.flags.writeable)
            assert P.hasse(dual) is P.hasse(dual)
        assert list(zip(*(a.tolist() for a in P.hasse()[1:]))) == P.edges()

    def test_built_once_per_direction(self, monkeypatch):
        """The tables, the polygons, the left-modularity test and the CU
        check on a fresh poset all read one set of arrays per direction."""
        family = build_bubble_lattice(3, 2)
        P = FinitePoset(family.poset.n, family.poset.edges())
        original, seen = FinitePoset.hasse, {False: [], True: []}

        def recorded(self, dual=False):
            arrays = original(self, dual)
            if self is P and not any(arrays is other for other in seen[dual]):
                seen[dual].append(arrays)
            return arrays

        monkeypatch.setattr(FinitePoset, "hasse", recorded)
        lattice_tables(P)
        posets._polygon_arrays(P)
        list(map(posets._left_modular_test(P), range(P.n)))
        assert verify_cu_labeling(P, edge_labels(family), build_label_poset(3, 2).leq).ok
        assert [len(seen[False]), len(seen[True])] == [1, 1]


class TestPolygons:
    def test_diamond(self):
        P = boolean_poset(2)
        polys = polygonal_intervals(P)
        assert len(polys) == 1
        assert polys[0].bottom == 0 and polys[0].top == 3
        assert {len(c) for c in polys[0].chains} == {3}

    def test_n5_pentagon(self):
        polys = polygonal_intervals(n5())
        assert len(polys) == 1
        sizes = sorted(len(c) for c in polys[0].chains)
        assert sizes == [3, 4]

    def test_bubble_21_sizes(self, bubble):
        P = bubble(2, 1).poset
        polys = polygonal_intervals(P)
        assert polys
        for poly in polys:
            span = set(poly.chains[0]) | set(poly.chains[1])
            assert len(span) in (4, 5)

    def test_bubble_21_has_pentagons(self, bubble):
        family = bubble(2, 1)
        polys = polygonal_intervals(family.poset)
        pentagons = {
            (str(family.words[p.bottom]), str(family.words[p.top]))
            for p in polys
            if len(set(p.chains[0]) | set(p.chains[1])) == 5
        }
        assert ("x1.x2.y1", "y1.x2") in pentagons
        assert ("x1", "y1") in pentagons

    def test_chains_only_meet_at_ends(self, bubble):
        P = bubble(2, 2).poset
        for poly in polygonal_intervals(P):
            c1, c2 = map(set, poly.chains)
            assert c1 & c2 == {poly.bottom, poly.top}


@st.composite
def random_bounded_poset(draw, max_n: int = 8):
    """A random poset; half of them get a new bottom and a new top."""
    P, masks = draw(random_poset(max_n=max_n))
    if draw(st.booleans()):
        n = P.n + 2
        top = 1 << (n - 1)
        masks = [(1 << n) - 1] + [(m << 1) | top for m in masks] + [top]
        P = FinitePoset.from_matrix(mask_matrix(masks))
    return P


@st.composite
def relabelled_bounded_poset(draw):
    """A random_bounded_poset with its ids permuted, so that they need not
    be a linear extension and topological positions differ from ids."""
    P = draw(random_bounded_poset())
    perm = draw(st.permutations(range(P.n)))
    return FinitePoset(P.n, [(perm[a], perm[b]) for a, b in P.edges()])


class TestFromMatrix:
    """Cover jumping against the bit-walk reduction it replaced, and the
    relations it refuses."""

    @given(st.one_of(random_poset().map(lambda data: data[0]), relabelled_bounded_poset(), closure_lattices()))
    def test_covers_match_the_bit_walk(self, P):
        Q = FinitePoset.from_matrix(mask_matrix(list(P.up)))
        assert Q.edges() == sorted(oracle_reduction(list(P.up))) == P.edges()
        assert Q.up == P.up and Q.topo == P.topo

    @given(random_poset(), st.data())
    def test_refuses_a_dropped_comparison(self, poset, data):
        """Without one pair i < j that is not a cover, the relation keeps a
        chain i < k < j and is not transitive."""
        P, _ = poset
        pairs = [(i, j) for i in range(P.n) for j in range(P.n) if P.leq(i, j) and i != j and j not in P.up_adj[i]]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        leq = mask_matrix(list(P.up))
        leq[i, j] = False
        with pytest.raises(ValueError, match="^relation is not transitive$"):
            FinitePoset.from_matrix(leq)

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["10", "01", "00"], "not square"),
            (["01", "01"], "must be reflexive"),
            (["11", "11"], "not antisymmetric"),
            # 0 <= 1 <= 2 but not 0 <= 2
            (["110", "011", "001"], "not transitive"),
            # the same with 2 <= 0: a cycle, though no two elements are mutually below
            (["110", "011", "101"], "not transitive"),
            # the covers 0 -> 1 -> 2 -> 3 and 0 -> 3, where 1 <= 3 is missing
            (["1111", "0110", "0011", "0001"], "not transitive"),
        ],
    )
    def test_refuses_a_relation_that_is_not_an_order(self, rows, message):
        with pytest.raises(ValueError, match=message):
            FinitePoset.from_matrix(np.array([[c == "1" for c in row] for row in rows]))


def assert_matches_oracles(P):
    join, meet = lattice_tables(P)
    expected_join, expected_meet = oracle_lattice_tables(P)
    assert np.array_equal(join, expected_join)
    assert np.array_equal(meet, expected_meet)
    assert polygonal_intervals(P) == oracle_polygonal_intervals(P)


def assert_matches_oracles_or_not_a_lattice(P):
    try:
        oracle_lattice_tables(P)
    except NotALattice:
        with pytest.raises(NotALattice):
            lattice_tables(P)
        return
    assert_matches_oracles(P)


def assert_matches_certified_oracle(P):
    """The same tables as the walk that certifies both, or NotALattice with
    the same verdict, which the lattice gate raises too, with no meet table:
    the same message, but for "two minimal upper bounds", whose pair is
    that of ``oracle_join_witness``."""
    try:
        expected = oracle_certified_tables(P)
    except NotALattice as exc:
        message = str(exc)
        if message.endswith("have two minimal upper bounds"):
            message = "elements {} and {} have two minimal upper bounds".format(*oracle_join_witness(P))
        for build in (lattice_tables, posets._join_table):
            with pytest.raises(NotALattice, match=f"^{re.escape(message)}$"):
                build(FinitePoset(P.n, P.edges()))
        return
    join, meet = lattice_tables(P)
    assert np.array_equal(join, expected[0]) and np.array_equal(meet, expected[1])


def source_mutant(monkeypatch, function, old, new):
    """Replace ``function`` in its module with a copy whose source has the
    one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, function.__name__, namespace[function.__name__])


def caught(P) -> bool:
    """Whether the tables of a fresh copy of P fail the certified oracle:
    other tables or verdict, another message, or NotALattice on a lattice."""
    try:
        assert_matches_certified_oracle(FinitePoset(P.n, P.edges()))
    except (AssertionError, pytest.fail.Exception, NotALattice):
        return True
    return False


# the bounded 2+2 crown: 1 and 2 have two minimal upper bounds, 3 and 4
CROWN = FinitePoset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
# the same without its bottom: 0 and 1 are minimal, with the two bounds 2
# and 3, and 0 < 5 < 4 gives one column that is not minimal
CROWN_WITHOUT_BOTTOM = FinitePoset(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (0, 5), (5, 4)])


class TestUncertifiedMeetWalk:
    """The tables from the irreducible columns against the walk that
    certifies both tables over every column: once the join table is
    certified, the meet table needs no certificate."""

    @given(st.one_of(random_bounded_poset(), relabelled_bounded_poset(), closure_lattices()))
    # a join-semilattice without a bottom: "no lower bound" from the meet walk
    @example(FinitePoset(3, [(0, 2), (1, 2)]))
    # "two minimal upper bounds" from the join table
    @example(CROWN)
    # 1 and 4, at positions 1 and 2 of topo, share a level, and each fails
    # at the other: the walk names the failing row of greatest position
    @example(FinitePoset(6, [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (4, 2), (4, 5), (5, 3)]))
    # two minimal elements with two minimal upper bounds: the minimal
    # elements are columns too
    @example(CROWN_WITHOUT_BOTTOM)
    def test_random_posets(self, P):
        assert_matches_certified_oracle(P)

    @pytest.mark.parametrize("block", [1, 1000])
    def test_level_walk_steps(self, block, bubble):
        # one row or edge per step; and steps of 1000 // (w·|K|) rows, w the
        # widest cover list, or 125 // |K| edges, with a remainder (N = 86,
        # |K| = 12)
        P = bubble(3, 2).poset
        with mock.patch.object(posets, "_ID_BLOCK", block):
            assert_matches_certified_oracle(FinitePoset(P.n, P.edges()))

    @given(st.one_of(random_bounded_poset(), relabelled_bounded_poset()), st.sampled_from([1, 40]))
    def test_level_walk_steps_on_random_posets(self, P, block):
        with mock.patch.object(posets, "_ID_BLOCK", block):
            assert_matches_certified_oracle(FinitePoset(P.n, P.edges()))

    @pytest.mark.parametrize("P", [boolean_poset(2), n5(), FinitePoset(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])])
    def test_meet_by_max_is_caught(self, P, monkeypatch):
        # the meet's column walk taking the greatest position among the
        # lower-cover rows, i.e. the least candidate, in place of the
        # greatest candidate
        original = posets._bound_table
        maxed = types.SimpleNamespace(**{**vars(np), "minimum": np.maximum})

        def mutant(P, meet=False):
            if not meet:
                return original(P)
            with monkeypatch.context() as patch:
                patch.setattr(posets, "np", maxed)
                return original(P, meet=True)

        monkeypatch.setattr(posets, "_bound_table", mutant)
        with pytest.raises(AssertionError):
            assert_matches_oracles(FinitePoset(P.n, P.edges()))

    @pytest.mark.parametrize(
        "old,new,P",
        [
            # the certificate dropped: the crown gets tables
            ("    if not meet:\n        packed", "    if False:\n        packed", CROWN),
            # the minimal elements dropped from the columns: column 5 passes,
            # so "no lower bound" is raised in place of two upper bounds
            ("len(lower[k]) < 2", "len(lower[k]) == 1", CROWN_WITHOUT_BOTTOM),
            # the fill using d1 twice: a join with itself
            ("table[d2].take(table[d1]", "table[d1].take(table[d1]", n5()),
            # the column walk taking the greatest candidate, join and meet
            ("np.minimum.reduce", "np.maximum.reduce", n5()),
        ],
        ids=["certificate-dropped", "minimal-elements-dropped", "fill-by-d1-twice", "walk-by-max"],
    )
    def test_mutant_is_caught(self, old, new, P, monkeypatch):
        assert not caught(P)
        source_mutant(monkeypatch, posets._bound_table, old, new)
        assert caught(P)


class TestCoverRecursionAgainstOracles:
    """The cover-recursive tables and the join-driven polygon search against
    the pair-by-pair scans they replaced."""

    @given(random_bounded_poset())
    def test_random_posets(self, P):
        assert_matches_oracles_or_not_a_lattice(P)

    @given(relabelled_bounded_poset())
    # bottom 2, atoms 0 and 3, top 1; and the same without its top
    @example(FinitePoset(4, [(2, 0), (2, 3), (0, 1), (3, 1)]))
    @example(FinitePoset(3, [(2, 0), (2, 1)]))
    def test_relabelled_posets(self, P):
        assert_matches_oracles_or_not_a_lattice(P)

    @given(closure_lattices())
    # [0, 5] is no polygon: the walk 1 -> 3 -> 5 misses 4, the other upper
    # cover of 1 inside it
    @example(FinitePoset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]))
    # nor is [0, 7], though 7 has two lower covers in it: 1 has two upper
    # covers in it, 3 and 4, which meet again at 5
    @example(FinitePoset(8, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (4, 5), (5, 7), (2, 6), (6, 7)]))
    def test_random_lattices(self, P):
        assert_matches_oracles(P)

    @pytest.mark.parametrize("m,n", splits(5))
    def test_bubble_families(self, m, n, bubble):
        assert_matches_oracles(bubble(m, n).poset)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_polygon_blocks(self, block, bubble):
        # blocks of candidates, and of polygons when the chain tuples are built
        P = bubble(3, 2).poset
        with mock.patch.object(posets, "_POLYGON_BLOCK", block):
            assert polygonal_intervals(P) == oracle_polygonal_intervals(P)

    @pytest.mark.parametrize("m,n", splits(4))
    def test_shuffle_posets(self, m, n, shuffle):
        assert_matches_oracles(shuffle(m, n).poset)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_hochschild_lattices(self, k):
        assert_matches_oracles(hochschild_lattice(k)[1])

    def test_polygons_need_a_lattice(self):
        P = FinitePoset(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(NotALattice, match="no upper bound"):
            polygonal_intervals(P)

    def test_no_upper_bound(self):
        with pytest.raises(NotALattice, match="^elements 2 and 1 have no upper bound$"):
            lattice_tables(FinitePoset(3, [(0, 1), (0, 2)]))

    def test_two_minimal_upper_bounds(self):
        # bottom 0, atoms 1 and 2, both below each of 3 and 4, top 5
        P = FinitePoset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
        with pytest.raises(
            NotALattice, match="^elements 2 and 1 have two minimal upper bounds$"
        ):
            lattice_tables(P)

    def test_no_lower_bound(self):
        with pytest.raises(NotALattice, match="^elements 0 and 1 have no lower bound$"):
            lattice_tables(FinitePoset(3, [(0, 2), (1, 2)]))

    def test_tables_are_the_only_square_arrays(self, bubble):
        # the two uint16 tables plus 2 MB: a second N x N uint16 array, such
        # as a fill that is not in place, adds 7.4 MB at (4,4)
        P = bubble(4, 4).poset
        fresh = FinitePoset(P.n, P.edges())
        tracemalloc.start()
        try:
            lattice_tables(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * fresh.n**2 * 2 + 2 * 2**20

    def test_lattice_gate_builds_no_meet_table(self, bubble):
        # the join table plus 2 MB: the meet table would add 7.0 MiB at (4,4)
        P = bubble(4, 4).poset
        fresh = FinitePoset(P.n, P.edges())
        tracemalloc.start()
        try:
            assert is_lattice(fresh) and is_semidistributive(fresh)
            lambda_jsd(fresh, fresh.edges()[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= fresh.n**2 * 2 + 2 * 2**20

    def test_polygon_search_keeps_only_its_polygons(self, bubble):
        # the polygons share the ints of one object array and are built a
        # block at a time; the walk-based search held 3.55 MiB and peaked at
        # 3.56 MiB at (4,4).  No N x N array
        P = bubble(4, 4).poset
        fresh = FinitePoset(P.n, P.edges())
        lattice_tables(fresh)
        tracemalloc.start()
        try:
            polygons = polygonal_intervals(fresh)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(polygons) == 12_854
        assert kept <= 3.55 * 2**20 and peak <= 4.1 * 2**20

    def test_tables_are_uint16(self, bubble):
        join, meet = lattice_tables(bubble(2, 2).poset)
        assert join.dtype == meet.dtype == np.uint16

    def test_more_elements_than_uint16_ids_refused(self):
        # refused before anything else is read or allocated: the tables
        # would need 17 GB
        too_big = types.SimpleNamespace(n=posets.TABLE_LIMIT + 1)
        for meet in (False, True):
            with pytest.raises(ValueError, match="^65,537 elements are more than uint16 tables can index"):
                posets._bound_table(too_big, meet)

    def test_packed_holds_one_row_at_a_time(self, bubble):
        # the array plus 64 KiB: a join of all the rows' bytes first, as
        # before, peaked at 2.5 times the 0.44 MiB array at (4,4)
        P = bubble(4, 4).poset
        tracemalloc.start()
        try:
            packed = posets._packed(P.up)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.unpackbits(packed, axis=1, count=P.n, bitorder="little").view(bool), mask_matrix(list(P.up)))
        assert peak <= packed.nbytes + 2**16
