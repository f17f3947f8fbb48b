"""Edge labels, the label poset, CU conditions, and jsd-fiber equivalence."""

import json

import pytest
from hypothesis import example, given, strategies as st

from bubblelattice.cli import main
from bubblelattice.labeling import (
    BubbleLabel,
    build_label_poset,
    check_cu_equals_jsd,
    edge_labels,
    label_from_step,
    label_leq,
    verify_cu_labeling,
)
from bubblelattice.posets import (
    FinitePoset,
    join_irreducibles,
    lambda_jsd,
    meet_irreducibles,
    polygonal_intervals,
)
from bubblelattice.words import parse_word

from conftest import (
    chain_edges,
    closure_lattices,
    lambda_bubble,
    oracle_verify_cu_labeling,
    replace_everywhere,
    splits,
)

X, Y, XY = BubbleLabel.xlab, BubbleLabel.ylab, BubbleLabel.pairlab


def w(text, m, n):
    return parse_word(text, m, n)


def label(u, v, family):
    """The family's label of the cover u -> v, which must equal the oracle's."""
    labels = edge_labels(family)
    found = labels[(family.index(u), family.index(v))]
    assert found == lambda_bubble(u, v)
    return found


class TestLambdaBubble:
    def test_insertion(self, bubble):
        assert label(w("x1.x2", 2, 1), w("x1.x2.y1", 2, 1), bubble(2, 1)) == Y(1)

    def test_deletion(self, bubble):
        assert label(w("x1.y1.x2", 2, 1), w("x1.y1", 2, 1), bubble(2, 1)) == X(2)

    def test_transposition(self, bubble):
        assert label(w("x1.x2.y1", 2, 1), w("x1.y1.x2", 2, 1), bubble(2, 1)) == XY(2, 1)

    def test_not_a_cover(self, bubble):
        u, v = w("x1.x2.y1", 2, 1), w("x1.y1", 2, 1)
        family = bubble(2, 1)
        assert (family.index(u), family.index(v)) not in edge_labels(family)
        with pytest.raises(ValueError):
            lambda_bubble(u, v)

    def test_presentation_order(self):
        assert sorted([XY(1, 1), Y(2), X(3), X(1)]) == [X(1), X(3), Y(2), XY(1, 1)]


class TestLabelPoset:
    def test_size(self):
        for m, n in [(2, 1), (3, 2), (4, 3), (0, 2), (3, 0)]:
            S = build_label_poset(m, n)
            assert len(S.labels) == m * n + m + n

    def test_pair_order_reverses_x_index(self):
        S = build_label_poset(2, 1)
        assert S.leq(XY(2, 1), XY(1, 1))
        assert not S.leq(XY(1, 1), XY(2, 1))

    def test_letters_incomparable(self):
        S = build_label_poset(2, 2)
        assert not S.leq(X(1), Y(1)) and not S.leq(Y(1), X(1))
        assert not S.leq(X(1), X(2)) and not S.leq(X(2), X(1))

    def test_letters_below_their_pairs(self):
        S = build_label_poset(3, 3)
        assert S.leq(X(2), XY(2, 3)) and S.leq(Y(3), XY(2, 3))
        assert S.leq(X(3), XY(2, 3)) and not S.leq(X(1), XY(2, 3))
        assert S.leq(Y(3), XY(1, 2)) and not S.leq(Y(1), XY(1, 2))

    def test_cover_structure_4_3(self):
        # the 4x3 instance: pair block is a reversed grid; each letter is a
        # pendant under its extreme pair.  This pins down the reading of the
        # second pair relation as "strictly larger second index sits lower".
        m, n = 4, 3
        S = build_label_poset(m, n)
        edges = {
            (str(S.labels[a]), str(S.labels[b])) for a, b in S.poset.edges()
        }
        expected = set()
        for s in range(1, m + 1):
            expected.add((f"x{s}", f"(x{s},y{n})"))
        for t in range(1, n + 1):
            expected.add((f"y{t}", f"(x{m},y{t})"))
        for s in range(1, m + 1):
            for t in range(1, n + 1):
                if s > 1:
                    expected.add((f"(x{s},y{t})", f"(x{s - 1},y{t})"))
                if t > 1:
                    expected.add((f"(x{s},y{t})", f"(x{s},y{t - 1})"))
        assert edges == expected
        maximal = [S.labels[i] for i in S.poset.maximal_elements()]
        assert maximal == [XY(1, 1)]

    def test_closed_form_matches_generators(self):
        # closure of the generating relations equals the closed form
        m, n = 3, 2
        S = build_label_poset(m, n)
        gen = set()
        for s in range(1, m + 1):
            for t in range(1, n + 1):
                gen.add((X(s), XY(s, t)))
                gen.add((Y(t), XY(s, t)))
        for t in range(1, n + 1):
            for s in range(1, m + 1):
                for s2 in range(1, s):
                    gen.add((XY(s, t), XY(s2, t)))
        for s in range(1, m + 1):
            for t in range(1, n + 1):
                for t2 in range(1, t):
                    gen.add((XY(s, t), XY(s, t2)))
        # reflexive-transitive closure of gen
        reach = {lab: {lab} for lab in S.labels}
        changed = True
        while changed:
            changed = False
            for a, b in gen:
                new = reach[b] - reach[a]
                if new:
                    reach[a] |= new
                    changed = True
        for a in S.labels:
            for b in S.labels:
                assert (b in reach[a]) == label_leq(a, b)


class TestCUConditions:
    @pytest.mark.parametrize("m,n", splits(6))
    def test_bubble_labeling_passes(self, m, n, bubble):
        family = bubble(m, n)
        S = build_label_poset(m, n)
        report = verify_cu_labeling(family.poset, edge_labels(family), S.leq)
        assert report.ok, report.as_dict()

    def test_constant_labeling_fails_cu3(self):
        P = FinitePoset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        labels = {e: "same" for e in P.edges()}
        report = verify_cu_labeling(P, labels, lambda a, b: a == b)
        assert report.cu3 and not report.ok

    def test_report_json_shape(self, bubble):
        family = bubble(2, 1)
        S = build_label_poset(2, 1)
        report = verify_cu_labeling(family.poset, edge_labels(family), S.leq)
        data = json.loads(report.to_json())
        assert set(data["violations"]) == {"CU1", "CU2", "CU3", "CU4", "CU5"}
        assert data["polygons"] == report.polygon_count

    def test_surjective_onto_label_set(self, bubble):
        for m, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            family = bubble(m, n)
            S = build_label_poset(m, n)
            assert set(edge_labels(family).values()) == set(S.labels)

    @pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 2)])
    def test_unique_irreducible_per_label(self, m, n, bubble):
        family = bubble(m, n)
        P = family.poset
        labels = edge_labels(family)
        j_by_label = {}
        for j in join_irreducibles(P):
            lab = labels[(P.down_adj[j][0], j)]
            assert lab not in j_by_label
            j_by_label[lab] = j
        m_by_label = {}
        for mm in meet_irreducibles(P):
            lab = labels[(mm, P.up_adj[mm][0])]
            assert lab not in m_by_label
            m_by_label[lab] = mm
        assert set(j_by_label) == set(m_by_label) == set(labels.values())


# bottom 0; short side 1; long side 2 < 3; top 4
N5 = FinitePoset(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])
# [0, 5] is no polygon: the walk 1 -> 3 -> 5 misses 4, the other upper cover of 1
NOT_A_POLYGON = FinitePoset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])


@st.composite
def labeled_lattices(draw):
    """A closure lattice, each edge labeled by one of a few ints, and a
    random set per value: a below b iff a's set is a proper subset of b's,
    a random partial order on the values."""
    P = draw(closure_lattices())
    values = draw(st.integers(1, 4))
    labels = {e: draw(st.integers(0, values - 1)) for e in P.edges()}
    return P, labels, tuple(draw(st.integers(0, 7)) for _ in range(values))


def subset_order(sets):
    return lambda a, b: a == b or (sets[a] & ~sets[b] == 0 and sets[a] != sets[b])


class TestCUOnCodes:
    """CU1-CU3 on codes against the polygon-by-polygon loop they replaced."""

    @given(labeled_lattices())
    # one label everywhere: CU2-CU5 fire; a label per edge and no order: CU1 and CU2
    @example((N5, dict.fromkeys(N5.edges(), 0), (0,)))
    @example((N5, {e: i for i, e in enumerate(N5.edges())}, (0,) * 5))
    @example((NOT_A_POLYGON, {e: i % 3 for i, e in enumerate(NOT_A_POLYGON.edges())}, (1, 3, 1)))
    # the interior label 3 lies above the short side's bottom label 0 but not
    # above the long side's, 2: CU2 tests both
    @example((N5, {(0, 1): 0, (1, 4): 1, (0, 2): 2, (2, 3): 3, (3, 4): 4}, (1, 0, 4, 3, 0)))
    def test_report_matches_the_oracle(self, case):
        P, labels, sets = case
        leq = subset_order(sets)
        assert verify_cu_labeling(P, labels, leq).as_dict() == oracle_verify_cu_labeling(P, labels, leq).as_dict()

    def test_examples_fire_every_condition(self):
        constant = verify_cu_labeling(N5, dict.fromkeys(N5.edges(), 0), subset_order((0,)))
        distinct = verify_cu_labeling(N5, {e: i for i, e in enumerate(N5.edges())}, subset_order((0,) * 5))
        fired = {k for r in (constant, distinct) for k, v in r.as_dict()["violations"].items() if v}
        assert fired == {"CU1", "CU2", "CU3", "CU4", "CU5"}

    def test_leq_called_once_per_distinct_pair(self, bubble):
        family = bubble(3, 2)
        S = build_label_poset(3, 2)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return S.leq(a, b)

        assert verify_cu_labeling(family.poset, edge_labels(family), counted).ok
        assert calls and len(calls) == len(set(calls))


class TestPolygonLabelPatterns:
    @pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
    def test_patterns(self, m, n, bubble):
        # diamonds swap their two labels; pentagons come in three shapes:
        #   [(x_a,y_t), (x_b,y_t), x_b]  with b < a
        #   [y_c,      (x_s,y_c), (x_s,y_d)]  with c < d
        #   [y_t,      (x_s,y_t), x_s]
        # the short chain always carries the long chain's end labels swapped
        family = bubble(m, n)
        labels = edge_labels(family)
        seen_shapes = set()
        for poly in polygonal_intervals(family.poset):
            e1, e2 = chain_edges(poly)
            lab1 = [labels[e] for e in e1]
            lab2 = [labels[e] for e in e2]
            if len(lab1) > len(lab2):
                long, short = lab1, lab2
            else:
                long, short = lab2, lab1
            assert short[0] == long[-1] and short[-1] == long[0]
            if len(long) == 2:
                seen_shapes.add("diamond")
                continue
            assert len(long) == 3 and len(short) == 2
            a, b, c = long
            if a.kind == "xy" and c.kind == "x":
                assert b.kind == "xy" and a.t == b.t and b.s == c.s and b.s < a.s
                seen_shapes.add("del-transpose")
            elif a.kind == "y" and c.kind == "xy":
                assert b.kind == "xy" and b.s == c.s and b.t == a.t and a.t < c.t
                seen_shapes.add("insert-transpose")
            elif a.kind == "y" and c.kind == "x":
                assert b == XY(c.s, a.t)
                seen_shapes.add("tail-insert-delete")
            else:
                raise AssertionError(f"unexpected pentagon labels {long}")
        if (m, n) == (2, 1):
            assert {"diamond", "del-transpose", "tail-insert-delete"} <= seen_shapes
        if (m, n) == (2, 2):
            assert "insert-transpose" in seen_shapes


class TestFiberEquivalence:
    def test_bubble_21_fibers(self, bubble):
        family = bubble(2, 1)
        labels = edge_labels(family)
        assert len(labels) == 18 and len(set(labels.values())) == 5
        assert check_cu_equals_jsd(family.poset, labels)

    @pytest.mark.parametrize("m,n", splits(4))
    def test_fibers_match(self, m, n, bubble):
        family = bubble(m, n)
        assert check_cu_equals_jsd(family.poset, edge_labels(family))

    def test_coarser_labeling_is_refused(self, bubble):
        family = bubble(2, 1)
        labels = edge_labels(family)
        merged = BubbleLabel.xlab(1), BubbleLabel.xlab(2)
        assert set(merged) <= set(labels.values())
        coarser = {e: merged[0] if lab in merged else lab for e, lab in labels.items()}
        assert not check_cu_equals_jsd(family.poset, coarser)

    def test_finer_labeling_is_refused(self, bubble):
        family = bubble(2, 1)
        labels = edge_labels(family)
        first = next(iter(labels))  # one edge of its label's fiber gets a label of its own
        assert sum(lab == labels[first] for lab in labels.values()) > 1
        finer = {**labels, first: "split"}
        assert not check_cu_equals_jsd(family.poset, finer)

    def test_chain_lattice_both_injective(self):
        P = FinitePoset(4, [(0, 1), (1, 2), (2, 3)])
        labels = {e: i for i, e in enumerate(P.edges())}
        assert check_cu_equals_jsd(P, labels)
        jsd = {e: lambda_jsd(P, e) for e in P.edges()}
        assert len(set(jsd.values())) == len(jsd)


def test_one_check_run_labels_the_family_once(monkeypatch, capsys):
    """The labeling and galois suites share one edge-label dict, built with
    one ``label_from_step`` per distinct label: mn + m + n calls in all."""
    calls = []

    def counted(step):
        calls.append(step)
        return label_from_step(step)

    replace_everywhere(monkeypatch, label_from_step, counted)
    assert main(["check", "3", "2", "--suite", "labeling,galois"]) == 0
    capsys.readouterr()
    assert len(calls) == 3 * 2 + 3 + 2
