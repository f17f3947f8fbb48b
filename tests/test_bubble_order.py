"""Order relations, covers, joins/meets, and the built lattice families."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given

from bubblelattice import bubble as bubble_module
from bubblelattice import checks, posets
from bubblelattice.bubble import (
    STEP_KINDS,
    LatticeFamily,
    _codes,
    _cover_steps,
    _rank,
    build_bubble_lattice,
    extremal_chain_words,
    filling_tables,
    join,
    leq_bubble,
    leq_shuffle,
    meet,
    order_relation,
)
from bubblelattice.errors import CapExceeded
from bubblelattice.posets import FinitePoset
from bubblelattice.labeling import edge_labels, label_from_step
from bubblelattice.words import (
    ShuffleWord,
    count_shuffle,
    dualize,
    enumerate_shuffle,
    parse_word,
    profile,
    word_text,
    y_fill,
)

from conftest import (
    closure_matrix,
    one_step_moves,
    oracle_join,
    oracle_leq_bubble,
    oracle_leq_shuffle,
    oracle_meet,
    oracle_words,
    random_triple,
    random_word_pair,
    splits,
    upper_covers,
)


def w(text, m, n):
    return parse_word(text, m, n)


def covers_of(family, text):
    """``{cover: (kind, s, t)}`` of one word, from the family's cover steps."""
    src, dst, kind, s, t = family.steps
    i = family.index(w(text, family.m, family.n))
    return {
        word_text(family.words[b]): (STEP_KINDS[k], ss, tt)
        for a, b, k, ss, tt in zip(src.tolist(), dst.tolist(), kind.tolist(), s.tolist(), t.tolist())
        if a == i
    }


class TestShuffleOrder:
    def test_insertion_edge(self):
        assert leq_shuffle(w("x1.x2", 2, 1), w("x1.y1.x2", 2, 1))

    def test_reflexive(self):
        u = w("x1.y1", 2, 1)
        assert leq_shuffle(u, u)

    def test_common_part_must_agree(self):
        assert not leq_shuffle(w("y1.x1", 2, 1), w("x1.y1", 2, 1))
        assert not leq_shuffle(w("x1.y1", 2, 1), w("y1.x1", 2, 1))


class TestBubbleOrder:
    def test_single_transposition(self):
        assert leq_bubble(w("x1.y1", 1, 1), w("y1.x1", 1, 1))
        assert not leq_bubble(w("y1.x1", 1, 1), w("x1.y1", 1, 1))

    def test_deletion_through_transposition(self):
        # the deletion x1.x2.y1 -> x1.y1 factors through x1.y1.x2
        assert leq_bubble(w("x1.x2.y1", 2, 1), w("x1.y1.x2", 2, 1))
        assert leq_bubble(w("x1.y1.x2", 2, 1), w("x1.y1", 2, 1))
        assert leq_bubble(w("x1.x2.y1", 2, 1), w("x1.y1", 2, 1))

    @pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
    def test_extends_shuffle_order(self, m, n, bubble):
        words = bubble(m, n).words
        for u in words:
            for v in words:
                if leq_shuffle(u, v):
                    assert leq_bubble(u, v)

    @pytest.mark.parametrize("m,n", splits(5))
    def test_equals_move_closure(self, m, n, bubble):
        family = bubble(m, n)
        reach = closure_matrix(family)
        for i, u in enumerate(family.words):
            for j, v in enumerate(family.words):
                assert leq_bubble(u, v) == bool(reach[i] >> j & 1)

    @pytest.mark.parametrize("m,n", splits(4))
    def test_move_closure_by_one_pass_is_the_squaring_oracle(self, m, n, bubble):
        from bubblelattice.checks import _move_closure

        assert _move_closure(bubble(m, n)) == closure_matrix(bubble(m, n))

    def test_move_closure_constructs_no_word(self, bubble, monkeypatch):
        """The moves are looked up by their letters; no trial word is built."""
        family = bubble(3, 3)
        built = []
        original = ShuffleWord.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ShuffleWord, "__post_init__", counted)
        assert checks.check_move_closure(family).status == "pass"
        assert built == []

    @pytest.mark.parametrize("m,n", splits(6))
    def test_partial_order_axioms(self, m, n, bubble):
        from bubblelattice.checks import check_order_axioms

        assert check_order_axioms(bubble(m, n)).ok


class TestCovers:
    def test_bottom_covers(self, bubble):
        assert set(covers_of(bubble(2, 1), "x1.x2")) == {"x1", "x2", "x1.x2.y1"}

    def test_cover_kinds(self, bubble):
        kinds = {v: step[0] for v, step in covers_of(bubble(2, 1), "x1.x2.y1").items()}
        assert kinds == {"x2.y1": "delete_x", "x1.y1.x2": "transposition"}

    def test_transposition_records_new_inversion(self, bubble):
        (v, step), = [
            (v, step) for v, step in covers_of(bubble(2, 1), "x1.x2.y1").items() if step[0] == "transposition"
        ]
        assert step[1:] == (2, 1)
        assert w(v, 2, 1).inversions - w("x1.x2.y1", 2, 1).inversions == {(2, 1)}

    @pytest.mark.parametrize("m,n", splits(5))
    def test_up_cover_count_formula(self, m, n, bubble):
        family = bubble(m, n)
        counts = np.bincount(family.steps[0], minlength=len(family.words))
        assert counts.tolist() == [len(u.xsupport) + (n - len(u.ysupport)) for u in family.words]

    @pytest.mark.parametrize("m,n", splits(7))
    def test_steps_and_labels_equal_the_letter_level_oracle(self, m, n, bubble):
        family = bubble(m, n)
        expected_steps, expected_labels = {}, {}
        for i, u in enumerate(family.words):
            for v, step in upper_covers(u):
                edge = (i, family.index(v))
                expected_steps[edge] = (step.kind, step.s or 0, step.t or 0)
                expected_labels[edge] = label_from_step(step)
        src, dst, kind, s, t = family.steps
        steps = zip(src.tolist(), dst.tolist(), kind.tolist(), s.tolist(), t.tolist())
        assert {(a, b): (STEP_KINDS[k], ss, tt) for a, b, k, ss, tt in steps} == expected_steps
        assert len(src) == len(expected_steps)
        assert edge_labels(family) == expected_labels

    def test_cover_outside_the_words_raises(self, bubble):
        # x1 deletes its x to the empty word, the first word in canonical order
        words = bubble(2, 1).words
        assert word_text(words[0]) == "-"
        with pytest.raises(ValueError, match="not among the words"):
            _cover_steps(words[1:])

    @pytest.mark.parametrize("m,n", splits(5))
    def test_covers_match_closure_oracle(self, m, n, bubble):
        family = bubble(m, n)
        reach = closure_matrix(family)
        size = len(family.words)
        oracle_edges = set()
        for i in range(size):
            for j in range(size):
                if i == j or not reach[i] >> j & 1:
                    continue
                strictly_between = reach[i] & ~(1 << i) & ~(1 << j)
                if all(
                    not (reach[k] >> j & 1)
                    for k in range(size)
                    if strictly_between >> k & 1 and k != j
                ):
                    oracle_edges.add((i, j))
        assert oracle_edges == set(family.poset.edges())


class TestJoinMeet:
    def test_worked_join(self):
        u = w("x2.x4.y1.y4.x5.y5", 5, 5)
        v = w("x3.y1.y3.x4.x5", 5, 5)
        assert word_text(join(u, v)) == "y1.y3.x4.y4.x5.y5"

    def test_join_unit_laws(self, bubble):
        family = bubble(2, 1)
        bottom = family.words[family.poset.bottom()]
        for u in family.words:
            assert join(u, u) == u
            assert join(u, bottom) == u

    def test_meet_of_two_atoms(self):
        assert word_text(meet(w("x1", 2, 1), w("x2", 2, 1))) == "x1.x2"

    def test_meet_with_top(self, bubble):
        family = bubble(2, 1)
        top = family.words[family.poset.top()]
        for u in family.words:
            assert meet(u, top) == u

    @pytest.mark.parametrize("m,n", splits(4))
    def test_join_meet_against_bruteforce(self, m, n, bubble):
        family = bubble(m, n)
        P = family.poset
        dual = P.dual()
        words = family.words
        for a in range(len(words)):
            for b in range(a, len(words)):
                ups = [
                    c
                    for c in range(len(words))
                    if P.leq(a, c) and P.leq(b, c)
                    and all(
                        not (P.leq(a, d) and P.leq(b, d) and d != c and P.leq(d, c))
                        for d in range(len(words))
                    )
                ]
                assert len(ups) == 1
                assert words[ups[0]] == join(words[a], words[b])
                downs = [
                    c
                    for c in range(len(words))
                    if dual.leq(a, c) and dual.leq(b, c)
                    and all(
                        not (dual.leq(a, d) and dual.leq(b, d) and d != c and dual.leq(d, c))
                        for d in range(len(words))
                    )
                ]
                assert len(downs) == 1
                assert words[downs[0]] == meet(words[a], words[b])

    @given(random_word_pair(max_m=3, max_n=3))
    def test_join_commutes(self, pair):
        u, v = pair
        assert join(u, v) == join(v, u)

    @given(random_word_pair(max_m=3, max_n=3))
    def test_absorption(self, pair):
        u, v = pair
        assert join(u, meet(u, v)) == u
        assert meet(u, join(u, v)) == u

    @pytest.mark.parametrize("m,n", splits(5))
    def test_absorption_exhaustive(self, m, n, bubble):
        words = bubble(m, n).words
        for u in words:
            for v in words:
                assert join(u, meet(u, v)) == u
                assert meet(u, join(u, v)) == u

    @given(random_triple())
    def test_join_associative(self, triple):
        u, v, x = triple
        assert join(join(u, v), x) == join(u, join(v, x))


class TestKernelAgainstOracle:
    """The bitmask kernel against the letter-level formulas in conftest."""

    @pytest.mark.parametrize("m,n", splits(5))
    def test_exhaustive(self, m, n, bubble):
        words = bubble(m, n).words
        for u in words:
            for v in words:
                assert join(u, v) == oracle_join(u, v)
                assert meet(u, v) == oracle_meet(u, v)
                assert leq_bubble(u, v) == oracle_leq_bubble(u, v)
                assert leq_shuffle(u, v) == oracle_leq_shuffle(u, v)

    @given(random_word_pair(max_m=12, max_n=12))
    def test_large_alphabets(self, pair):
        u, v = pair
        top, bottom = join(u, v), meet(u, v)
        assert top == oracle_join(u, v)
        assert bottom == oracle_meet(u, v)
        # random pairs are mostly incomparable; the bounds give comparable ones
        for a, b in ((u, v), (v, u), (u, top), (bottom, v), (top, u)):
            assert leq_bubble(a, b) == oracle_leq_bubble(a, b)
            assert leq_shuffle(a, b) == oracle_leq_shuffle(a, b)

    @pytest.mark.parametrize("m,n", splits(5))
    def test_relation_matrices(self, m, n, bubble):
        family = bubble(m, n)
        words = family.words
        bub, shuf = family.relation, order_relation(words, _shuffle=True)
        for i, u in enumerate(words):
            assert bub[i].tolist() == [leq_bubble(u, v) for v in words]
            assert shuf[i].tolist() == [leq_shuffle(u, v) for v in words]
        assert family.relation is family.relation
        assert not bub.flags.writeable and not shuf.flags.writeable

    @pytest.mark.parametrize("block", [1, 100, 1000])
    def test_relation_matrices_do_not_depend_on_the_row_block(self, block, bubble, monkeypatch):
        family = bubble(3, 3)
        whole = [order_relation(family.words, _shuffle=shuffle) for shuffle in (False, True)]
        monkeypatch.setattr(bubble_module, "_ROW_BLOCK", block)
        for shuffle, matrix in zip((False, True), whole):
            assert np.array_equal(order_relation(family.words, _shuffle=shuffle), matrix)

    @given(random_word_pair(max_m=12, max_n=12))
    @example((w("x1.y2.x7.y7", 7, 7), w("y1.x7", 7, 7)))  # the widest uint8 masks
    @example((w("x2.y1.x8", 8, 2), w("y2.x8", 8, 2)))  # the narrowest uint16 ones
    @example((w("y8.x1", 2, 8), w("x2.y1.y8", 2, 8)))
    @example((w("x1.y1.x8.y8", 8, 8), w("y1.y8.x8", 8, 8)))
    def test_relation_matrices_large_alphabets(self, pair):
        words = [*pair, join(*pair), meet(*pair)]
        bub, shuf = order_relation(words), order_relation(words, _shuffle=True)
        for i, u in enumerate(words):
            assert bub[i].tolist() == [leq_bubble(u, v) for v in words]
            assert shuf[i].tolist() == [leq_shuffle(u, v) for v in words]

    @pytest.mark.parametrize("op", [join, meet])
    def test_mismatched_families_rejected(self, op):
        with pytest.raises(ValueError):
            op(w("x1", 2, 1), w("x1", 2, 2))
        with pytest.raises(ValueError):
            op(w("y1", 1, 1), w("y1", 2, 1))


def table_rows(words):
    """The join and meet tables of ``filling_tables``: each block, rows lo..
    on columns lo.., placed in an N x N table whose pairs a <= b are then
    mirrored onto the pairs b < a."""
    blocks = list(filling_tables(words))
    count = len(words)
    ends = [lo + len(joins) for lo, joins, _ in blocks]
    assert [lo for lo, _, _ in blocks] == [0] + ends[:-1] and ends[-1] == count  # the blocks tile the rows
    tables = [np.zeros((count, count), dtype=np.int64) for _ in range(2)]
    for lo, *rows in blocks:
        for table, block in zip(tables, rows):
            assert block.shape == (len(rows[0]), count - lo)
            table[lo : lo + len(block), lo:] = block
    return [np.triu(table) + np.triu(table, 1).T for table in tables]


def assert_symmetric(table):
    """Commutativity: the mirrored tables cover every pair only when it holds."""
    assert table == [list(col) for col in zip(*table)]


class TestFillingTables:
    """The closed-form table rows against the word-level join and meet (the
    oracle) and against the certified cover-recursion tables."""

    @pytest.mark.parametrize("m,n", splits(5))
    def test_equal_word_level_join_meet(self, m, n, bubble):
        words = bubble(m, n).words
        joins, meets = table_rows(words)
        for op, table in ((join, joins), (meet, meets)):
            expected = [[op(u, v) for v in words] for u in words]
            assert_symmetric(expected)
            assert [[words[i] for i in row] for row in table.tolist()] == expected

    @pytest.mark.parametrize("m,n", splits(7))
    def test_equal_lattice_tables(self, m, n, bubble):
        joins, meets = table_rows(bubble(m, n).words)
        join_table, meet_table = posets.lattice_tables(bubble(m, n).poset)
        assert_symmetric(join_table.tolist())
        assert_symmetric(meet_table.tolist())
        assert np.array_equal(joins, join_table) and np.array_equal(meets, meet_table)

    @given(random_word_pair(max_m=5, max_n=5))
    def test_word_lists_beyond_a_family(self, pair):
        u, v = pair
        words = [u, v, join(u, v), meet(u, v)]
        joins, meets = table_rows(words)
        assert words[joins[0, 1]] == words[2] and words[meets[0, 1]] == words[3]

    def test_missing_word_gives_minus_one(self, bubble):
        words = bubble(2, 1).words
        for dropped in range(len(words)):
            kept = words[:dropped] + words[dropped + 1:]
            joins, meets = table_rows(kept)
            for op, table in ((join, joins), (meet, meets)):
                expected = [
                    [kept.index(op(u, v)) if op(u, v) in kept else -1 for v in kept] for u in kept
                ]
                assert table.tolist() == expected

    @pytest.mark.parametrize("corrupt", [lambda key: key | 1 << 62, lambda key: ~key])
    def test_corrupted_key_is_a_failing_pair(self, corrupt, bubble, monkeypatch):
        """A rank out of range, above the family or negative, looks up no
        word: -1 on every pair, not an IndexError."""
        original = bubble_module._rank

        def mutant(keep, *args):
            rank = original(keep, *args)
            return corrupt(rank) if np.ndim(keep) == 2 else rank  # the family's own ranks stay

        monkeypatch.setattr(bubble_module, "_rank", mutant)
        family = bubble(2, 2)
        result = checks.check_unique_joins(family)
        count = len(family.words)
        assert result.status == "fail"
        assert result.detail["failing_pairs"] == count * (count + 1)
        assert result.detail["witness"] == [str(family.words[0])] * 2

    def test_minus_one_is_a_failing_pair_against_uint16_tables(self, bubble, monkeypatch):
        # int64 -1 against a uint16 entry compares as -1, never as 65,535
        assert np.array([-1]) != np.array([65_535], dtype=np.uint16)
        family = bubble(2, 2)
        last = len(family.words) - 1
        original = checks.filling_tables

        def one_missing(words):
            for lo, joins, meets in original(words):
                if lo == 0:
                    joins = joins.copy()
                    joins[0, last] = -1
                yield lo, joins, meets

        monkeypatch.setattr(checks, "filling_tables", one_missing)
        result = checks.check_unique_joins(family)
        assert result.detail == {
            "failing_pairs": 1, "witness": [str(family.words[0]), str(family.words[last])]
        }


class TestFamilies:
    def test_family_21_shape(self, bubble):
        family = bubble(2, 1)
        assert len(family.words) == 12
        assert len(family.poset.edges()) == 18
        assert word_text(family.words[family.poset.bottom()]) == "x1.x2"
        assert word_text(family.words[family.poset.top()]) == "y1"

    def test_family_22_shape(self, bubble):
        # 33 elements by the interleaving count; 4-regular so 66 edges
        family = bubble(2, 2)
        assert len(family.words) == 33
        assert len(family.poset.edges()) == 66

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_y_family_is_boolean(self, n, bubble):
        # map each word to its support set; covers must add one element
        family = bubble(0, n)
        assert len(family.words) == 2 ** n
        by_support = {frozenset(u.ysupport): i for i, u in enumerate(family.words)}
        assert len(by_support) == 2 ** n
        for a, b in family.poset.edges():
            sa = frozenset(family.words[a].ysupport)
            sb = frozenset(family.words[b].ysupport)
            assert sa < sb and len(sb - sa) == 1
        for s, i in by_support.items():
            for t, j in by_support.items():
                assert family.poset.leq(i, j) == (s <= t)

    def test_cap_refuses_large_family(self):
        with pytest.raises(CapExceeded):
            build_bubble_lattice(4, 4, cap=100)

    def test_extremal_chain_is_a_maximal_chain(self, bubble):
        for m, n in [(2, 1), (2, 2), (3, 1)]:
            family = bubble(m, n)
            chain = [family.index(u) for u in extremal_chain_words(m, n)]
            assert len(chain) == m * n + m + n + 1
            for a, b in zip(chain, chain[1:]):
                assert b in family.poset.up_adj[a]
            assert chain[0] == family.poset.bottom()
            assert chain[-1] == family.poset.top()


def profile_rank(p, dual=False):
    """``_rank`` of the word of profile p, its masks and rows read off the
    supports and the inversion set: x fixed on the rows, or with ``dual`` y
    fixed on the cols (the y's after each x, those not inverted with it)."""
    xmask, ymask = sum(1 << s for s in p.xsupp), sum(1 << t for t in p.ysupp)
    if dual:
        cols = [sum(1 << t for t in p.ysupp if (s, t) not in p.inv) for s in range(p.m + 1)]
        return _rank(ymask, xmask, cols, cols, p.n)
    rows = [sum(1 << s for s in p.xsupp if (s, t) in p.inv) for t in range(p.n + 1)]
    return _rank(xmask, ymask, rows, rows, p.m)


class TestRank:
    @pytest.mark.parametrize("m,n", splits(9))
    def test_bijection_on_each_family_both_ways(self, m, n):
        """Distinct profiles (supports and inversions) get distinct ranks in
        0..N - 1, with x fixed on the rows and with y fixed on the cols, and
        the rank of each word's code is that of its profile."""
        words = enumerate_shuffle(m, n)
        xs, ys, rows, cols = _codes(words)
        profiles = [profile(u) for u in words]
        assert len(set(profiles)) == len(words) == count_shuffle(m, n)
        for dual, ranks in ((False, _rank(xs, ys, rows, rows, m)), (True, _rank(ys, xs, cols, cols, n))):
            assert [profile_rank(p, dual) for p in profiles] == ranks.tolist()
            assert sorted(ranks.tolist()) == list(range(len(words)))

    def test_index_refuses_a_word_not_among_the_words(self, bubble):
        family = bubble(2, 2)
        assert [family.index(u) for u in family.words] == list(range(len(family.words)))
        for foreign in (w("x1", 2, 1), w("x1", 3, 2), w("y1.y2", 1, 2)):
            with pytest.raises(KeyError):
                family.index(foreign)
        part = LatticeFamily(2, 2, family.words[1:], family.poset)
        assert part.index(family.words[2]) == 1
        with pytest.raises(KeyError):
            part.index(family.words[0])


class TestIrreducibleForms:
    @pytest.mark.parametrize("m,n", splits(5))
    def test_join_irreducibles_are_deletions_or_single_y(self, m, n, bubble):
        # an element has a unique lower cover exactly when it is the full
        # x-word minus one letter, or the full x-word carrying a single y
        family = bubble(m, n)
        got = {
            str(family.words[j]) for j in posets.join_irreducibles(family.poset)
        }
        expected = set()
        full_x = list(range(1, m + 1))
        for i in full_x:
            word = ".".join(f"x{s}" for s in full_x if s != i) or "-"
            expected.add(word)
        from bubblelattice.words import Letter, ShuffleWord

        for j in range(1, n + 1):
            for pos in range(m + 1):
                letters = (
                    tuple(Letter.x(s) for s in full_x[:pos])
                    + (Letter.y(j),)
                    + tuple(Letter.x(s) for s in full_x[pos:])
                )
                expected.add(str(ShuffleWord(letters, m, n)))
        if m == 0 and n == 0:
            expected = set()
        assert got == expected


class TestShufflePoset:
    def test_singleton(self, shuffle):
        assert len(shuffle(0, 0).words) == 1

    def test_covers_are_one_step_indels(self, shuffle):
        # in the shuffle order every single indel is a cover
        for m, n in [(2, 1), (1, 2), (2, 2)]:
            family = shuffle(m, n)
            indels = {
                (i, j)
                for i, j in one_step_moves(family)
                if len(family.words[i]) != len(family.words[j])
            }
            assert indels == set(family.poset.edges())

    def test_family_21_is_a_lattice(self, shuffle):
        assert posets.is_lattice(shuffle(2, 1).poset)

    def test_edge_count_21(self, shuffle):
        assert len(shuffle(2, 1).poset.edges()) == 22


def same_support_class(xsupp, ysupp, m, n):
    """The words of (m, n) with exactly these supports, from ``oracle_words``
    in canonical order, and their order by inversion inclusion."""
    words = sorted(
        (
            ShuffleWord(seq, m, n)
            for seq in oracle_words(m, n)
            if tuple(l.index for l in seq if l.is_x) == xsupp
            and tuple(l.index for l in seq if not l.is_x) == ysupp
        ),
        key=lambda u: u.sort_key,
    )
    poset = FinitePoset.from_leq(len(words), lambda i, j: words[i].inversions <= words[j].inversions)
    return words, poset


class TestSameSupport:
    def test_three_chain(self):
        words, poset = same_support_class((1, 2), (1,), 2, 1)
        assert [word_text(u) for u in words] == ["x1.x2.y1", "x1.y1.x2", "y1.x1.x2"]
        assert poset.length() == 2 and len(poset.edges()) == 2

    def test_single_element_cases(self):
        words, _ = same_support_class((1, 2), (), 2, 1)
        assert len(words) == 1
        words, _ = same_support_class((), (1,), 2, 1)
        assert len(words) == 1

    @pytest.mark.parametrize("s", range(5))
    @pytest.mark.parametrize("t", range(5))
    def test_counts(self, s, t):
        xsupp = tuple(range(1, s + 1))
        ysupp = tuple(range(1, t + 1))
        words, poset = same_support_class(xsupp, ysupp, s, t)
        assert len(words) == math.comb(s + t, s)
        assert posets.is_lattice(poset) and posets.is_distributive(poset)

    def test_one_poset_per_distinct_class_matrix(self, monkeypatch):
        # (3,3) has 64 support classes but 8 distinct class matrices
        family = build_bubble_lattice(3, 3)
        original, sizes = FinitePoset.from_matrix, []

        def counting(leq):
            sizes.append(len(leq))
            return original(leq)

        monkeypatch.setattr(FinitePoset, "from_matrix", staticmethod(counting))
        assert checks.check_same_support_distributive(family).status == "pass"
        assert len(sizes) == 8

    def test_matches_bubble_restriction(self, bubble):
        # the classes of lattice.same_support_distributive, words grouped by
        # their support masks and ordered by the code relation, are the
        # oracle's classes under inversion inclusion
        family = bubble(2, 2)
        rel = family.relation
        classes = {}
        for i, u in enumerate(family.words):
            classes.setdefault(u.code[:2], []).append(i)
        assert len(classes) == 16
        for ids in classes.values():
            u = family.words[ids[0]]
            words, poset = same_support_class(u.xsupport, u.ysupport, 2, 2)
            assert [family.words[i] for i in ids] == words
            for a, i in enumerate(ids):
                for b, j in enumerate(ids):
                    assert rel[i, j] == poset.leq(a, b) == leq_bubble(words[a], words[b])


class TestClosureOperator:
    @pytest.mark.parametrize("m,n", splits(4))
    def test_y_fill_is_closure(self, m, n, bubble):
        family = bubble(m, n)
        filled = {u: y_fill(u) for u in family.words}
        for u in family.words:
            assert filled[u] == y_fill(filled[u])
            assert leq_bubble(u, filled[u])
        for u in family.words:
            for v in family.words:
                if leq_bubble(u, v):
                    assert leq_bubble(filled[u], filled[v])

    @pytest.mark.parametrize("m,n", splits(5))
    def test_fill_ids_match_y_fill(self, m, n, bubble):
        family = bubble(m, n)
        fill = bubble_module.y_fill_ids(family.words)
        assert fill.tolist() == [family.index(y_fill(u)) for u in family.words]

    def test_fill_ids_build_no_word(self, monkeypatch):
        family = build_bubble_lattice(3, 3)
        family.relation
        built = []
        original = ShuffleWord.__post_init__
        monkeypatch.setattr(ShuffleWord, "__post_init__", lambda self: built.append(original(self)))
        assert checks.check_yfill_closure(family).ok
        assert not built

    def test_fill_missing_from_the_words_refused(self, bubble):
        words = bubble(2, 2).words
        u = next(w for w in words if len(w.ysupport) < 2)
        rest = [w for w in words if w != y_fill(u)]
        first = next(w for w in rest if y_fill(w) not in rest)
        with pytest.raises(ValueError, match=f"^the y_fill of {re.escape(str(first))} is not among the words$"):
            bubble_module.y_fill_ids(rest)

    def test_closed_means_full_y_support(self, bubble):
        family = bubble(2, 2)
        for u in family.words:
            assert (y_fill(u) == u) == (u.ysupport == (1, 2))

    def test_check_compares_in_row_blocks(self):
        # one block of about _ROW_BLOCK bools plus O(N) arrays and the
        # family's word index: 1.27 MiB at (4,4), where the N x N masks of
        # the whole-matrix check peaked at 4.0 MiB
        family = build_bubble_lattice(4, 4)
        family.relation
        tracemalloc.start()
        try:
            assert checks.check_yfill_closure(family).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestDuality:
    @pytest.mark.parametrize("m,n", splits(4))
    def test_anti_isomorphism(self, m, n, bubble):
        family = bubble(m, n)
        co = bubble(n, m)
        mapping = [co.index(dualize(u)) for u in family.words]
        assert sorted(mapping) == list(range(len(family.words)))
        co_edges = set(co.poset.edges())
        assert all((mapping[b], mapping[a]) in co_edges for a, b in family.poset.edges())
        assert len(co_edges) == len(family.poset.edges())
