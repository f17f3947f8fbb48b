"""Injected faults must show up as violations in a `check` report.

Each mutant replaces one function in every bubblelattice namespace that
holds it, then runs the full `check` on (2,2) and (3,2), on (3,1) where
the guarding suite needs n = 1, or on (2,2) and (3,3) where the mutant
needs m = n.  The report must come back (no traceback), exit with code 1,
and name the checks that guard the broken fact among its violations.
"""

import json

import numpy as np
import pytest

from bubblelattice import bubble, checks, galois, hochschild, labeling, posets, words
from bubblelattice.bubble import build_bubble_lattice
from bubblelattice.cli import main

from conftest import (
    oracle_same_support_detail,
    oracle_verify_cu_labeling,
    replace_everywhere,
    upper_covers,
)


def relation_without_rows(original):
    """The bubble relation reduced to its two support containments."""

    def mutant(ws, _shuffle=False):
        if _shuffle:
            return original(ws, _shuffle=True)
        xs = np.array([w.code[0] for w in ws])
        ys = np.array([w.code[1] for w in ws])
        return ((xs & ~xs[:, None]) == 0) & ((ys[:, None] & ~ys) == 0)

    return mutant


def one_x_one_y_classes(ws):
    """The ids of each support class with one x and one y, in family order:
    two words, x_s y_t below y_t x_s, the same 2 x 2 matrix in every class."""
    classes = {}
    for i, w in enumerate(ws):
        if len(w.xsupport) == len(w.ysupport) == 1:
            classes.setdefault(w.code[:2], []).append(i)
    return list(classes.values())


def relation_without_one_class_comparison(original):
    """The bubble relation without the strict comparison inside the last
    support class with one x and one y, a class shaped like those before it."""

    def mutant(ws, _shuffle=False):
        relation = original(ws, _shuffle)
        if _shuffle:
            return relation
        a, b = one_x_one_y_classes(ws)[-1]
        relation = relation.copy()
        relation[a, b] = relation[b, a] = False  # whichever of the two holds
        relation.flags.writeable = False
        return relation

    return mutant


def covers_without_transpositions(original):
    def mutant(ws):
        steps = original(ws)
        kept = steps[2] != bubble.STEP_KINDS.index("transposition")
        return tuple(a[kept] for a in steps)

    return mutant


def insert_y_one_slot_late(original):
    def mutant(seq, j):
        pos = next((p for p, l in enumerate(seq) if not l.is_x and l.index > j), len(seq))
        pos = min(pos + 1, len(seq))
        return seq[:pos] + (words.Letter.y(j),) + seq[pos:]

    return mutant


def galois_pair_arcs_reversed(original):
    def mutant(m, n):
        G = original(m, n)
        arcs = frozenset(
            (b, a) if a.kind == b.kind == "xy" else (a, b) for a, b in G.arcs
        )
        return galois.GaloisGraph(G.vertices, arcs)

    return mutant


def union_without_second_rows(original):
    """The closed-form join and meet with the second word's filled rows taken
    as empty.  The family's own keys (a word's union with itself) stay right."""

    def mutant(keep, present, first, second, width):
        return original(keep, present, first, np.zeros_like(second), width)

    return mutant


def join_without_second_rows(original):
    """The word-level join with the second word's inversion rows taken as empty."""

    def mutant(u, v):
        (ux, uy, urows, _), (vx, vy, vrows, _) = u.code, v.code
        no_rows = (0,) * len(vrows)
        return bubble._filled_union(
            u, ux & vx, words.Letter.x, uy, urows, vy, no_rows, words.Letter.y
        )

    return mutant


def pair_label_reversed(original):
    def mutant(step):
        label = original(step)
        return labeling.BubbleLabel.pairlab(label.t, label.s) if label.kind == "xy" else label

    return mutant


def sigma_run_one_short(original):
    """The run of 1s that y_1 marks ends one entry early."""

    def mutant(u, n):
        entries = list(original(u, n).entries)
        if 1 in entries:
            entries[len(entries) - 1 - entries[::-1].index(1)] = 0
        return hochschild.Triword(tuple(entries))

    return mutant


def kappa_without_lower_cover(original):
    """kappa(j) as the greatest element not above j, whatever j's lower cover."""

    def mutant(up, cover, j):
        excluded = ((1 << len(up)) - 1) & ~up[j]
        tops = [p for p in posets._bits(excluded) if up[p] & excluded == 1 << p]
        return tops[0] if len(tops) == 1 else None

    return mutant


def dualize_keeps_letters(original):
    """The dual word without exchanging x's and y's: the identity when m = n."""

    def mutant(u):
        return words.ShuffleWord(u.letters, u.n, u.m)

    return mutant


def kappa_least_not_above(original):
    """kappa(j) as the first minimal element not above j: the bottom, for an atom."""

    def mutant(P, j):
        excluded = ((1 << P.n) - 1) & ~P.up[j]
        return next(p for p in posets._bits(excluded) if P.down[p] & excluded == 1 << p)

    return mutant


def chain_reversed(original):
    def mutant(m, n):
        return original(m, n)[::-1]

    return mutant


def pairs_without_the_last(original):
    """The maximal orthogonal pairs less the last one, the top's."""

    def mutant(G):
        return original(G)[:-1]

    return mutant


def jsd_greatest_candidate(original):
    """λ_jsd as the candidate of greatest height, not the least one."""

    def mutant(P, edge):
        original(P, edge)  # refuses what the original refuses
        p, q = edge
        candidates = [j for j in posets.join_irreducibles(P) if P.leq(j, q) and not P.leq(j, p)]
        return max(candidates, key=P.height_below.__getitem__)

    return mutant


def subposet_without_comparisons(original):
    """The induced subposet with every strict comparison dropped: an antichain."""

    def mutant(self, elements):
        return posets.FinitePoset(len(elements), [])

    return mutant


MUTANTS = {
    "relation_drops_rows": (
        lambda: bubble.order_relation,
        relation_without_rows,
        {
            "order.axioms",
            "order.move_closure",
            "order.covers_match_reduction",
            "lattice.same_support_distributive",
        },
    ),
    "relation_drops_one_class_comparison": (
        lambda: bubble.order_relation,
        relation_without_one_class_comparison,
        {"lattice.same_support_distributive"},
    ),
    "covers_drop_transpositions": (
        lambda: bubble._cover_steps,
        covers_without_transpositions,
        {"order.covers_match_reduction", "lattice.hasse_regular", "lattice.unique_joins"},
    ),
    "insert_y_off_by_one": (
        lambda: words._insert_y,
        insert_y_one_slot_late,
        {"lattice.yfill_closure"},
    ),
    "galois_pair_arcs_reversed": (
        lambda: galois.bubble_galois_explicit,
        galois_pair_arcs_reversed,
        {"galois.graphs_coincide"},
    ),
    "join_drops_second_rows": (
        lambda: bubble._union_keys,
        union_without_second_rows,
        {"lattice.unique_joins"},
    ),
    "pair_label_reversed": (
        lambda: labeling.label_from_step,
        pair_label_reversed,
        {"labeling.cu_conditions"},
    ),
    "sigma_tilde_off_by_one": (
        lambda: hochschild.sigma_tilde,
        sigma_run_one_short,
        {"hochschild.iso"},
    ),
    "kappa_forgets_lower_cover": (
        lambda: posets._kappa,
        kappa_without_lower_cover,
        {"lattice.semidistributive_trim"},
    ),
    "dualize_keeps_letters": (
        lambda: words.dualize,
        dualize_keeps_letters,
        {"duality.anti_isomorphism"},
    ),
    "kappa_least_not_above": (
        lambda: posets.kappa,
        kappa_least_not_above,
        {"crown.witness"},
    ),
    "extremal_chain_reversed": (
        lambda: bubble.extremal_chain_words,
        chain_reversed,
        {"lattice.semidistributive_trim", "galois.graphs_coincide"},
    ),
    "orthogonal_pairs_drop_the_last": (
        lambda: galois.max_orthogonal_pairs,
        pairs_without_the_last,
        {"galois.graphs_coincide"},
    ),
    "jsd_greatest_candidate": (
        lambda: posets.lambda_jsd,
        jsd_greatest_candidate,
        {"labeling.fibers_match_jsd"},
    ),
    "subposet_drops_comparisons": (
        lambda: posets.FinitePoset.subposet,
        subposet_without_comparisons,
        {"lattice.irreducibles_poset"},
    ),
}
# the hochschild suite skips every n != 1; keeping the letters stays in the
# alphabet only when m = n
FAMILIES = {"sigma_tilde_off_by_one": ((3, 1),), "dualize_keeps_letters": ((2, 2), (3, 3))}
CASES = [(name, m, n) for name in sorted(MUTANTS) for m, n in FAMILIES.get(name, ((2, 2), (3, 2)))]


@pytest.mark.parametrize("mutant,m,n", CASES)
def test_mutant_is_caught(mutant, m, n, monkeypatch, capsys):
    target, make, guards = MUTANTS[mutant]
    original = target()
    replace_everywhere(monkeypatch, original, make(original))
    code = main(["check", str(m), str(n)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert guards <= set(report["violations"])


def first_table_mismatch(family):
    """The first pair a <= b, row-major, where ``filling_tables`` disagrees
    with the certified tables, and the number of disagreements."""
    join_table, meet_table = posets.lattice_tables(family.poset)
    ws, first, count = family.words, None, 0
    for lo, joins, meets in bubble.filling_tables(ws):
        for a in range(lo, lo + len(joins)):
            for b in range(a, len(ws)):
                here = a - lo, b - lo
                bad = int(joins[here] != join_table[a, b]) + int(meets[here] != meet_table[a, b])
                if bad and first is None:
                    first = [str(ws[a]), str(ws[b])]
                count += bad
    return first, count


def test_unique_joins_witness_is_the_first_failing_pair(monkeypatch, capsys):
    original = bubble._union_keys
    replace_everywhere(monkeypatch, original, union_without_second_rows(original))
    assert main(["check", "2", "2", "--suite", "lattice"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    detail = next(c["detail"] for c in checks if c["id"] == "lattice.unique_joins")
    first, count = first_table_mismatch(build_bubble_lattice(2, 2))
    assert detail["witness"] == first
    assert detail["failing_pairs"] == count > 0


@pytest.mark.parametrize("make", [relation_without_rows, relation_without_one_class_comparison])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
def test_same_support_witness_is_the_first_failing_class(make, m, n, monkeypatch, capsys):
    original = bubble.order_relation
    replace_everywhere(monkeypatch, original, make(original))
    assert main(["check", str(m), str(n), "--suite", "lattice"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    detail = next(c["detail"] for c in checks if c["id"] == "lattice.same_support_distributive")
    expected = oracle_same_support_detail(build_bubble_lattice(m, n))
    assert detail == expected != {}


def test_same_support_verdict_is_keyed_on_the_matrix(monkeypatch):
    """The one dropped comparison lies in a class whose shape, one x and one
    y, the classes before it share: a verdict shared by shape would pass it."""
    ws = build_bubble_lattice(3, 3).words
    target = one_x_one_y_classes(ws)
    assert len(target) == 9
    original = bubble.order_relation
    replace_everywhere(monkeypatch, original, relation_without_one_class_comparison(original))
    result = checks.check_same_support_distributive(build_bubble_lattice(3, 3))
    assert result.status == "fail"
    assert result.detail == {"witness": [str(ws[target[-1][0]])]}


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_word_level_join_fault_disagrees_with_the_tables(m, n):
    """The same fault in ``bubble.join`` is caught by the table route, against
    which ``tests/test_bubble_order.py`` checks the word-level join.  The
    route yields the pairs a <= b; the faulty join is compared on both
    orders of each, so every pair is read."""
    family = build_bubble_lattice(m, n)
    ws = family.words
    faulty = join_without_second_rows(bubble.join)
    differs = sum(
        faulty(ws[p], ws[q]) != ws[joins[a - lo, b - lo]]
        for lo, joins, _ in bubble.filling_tables(ws)
        for a in range(lo, lo + len(joins))
        for b in range(a, len(ws))
        for p, q in ((a, b), (b, a))
    )
    assert differs > 0


def test_trim_check_runs_no_chain_search(monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("left_modular_chain called")

    replace_everywhere(monkeypatch, posets.left_modular_chain, no_search)
    assert main(["check", "2", "2", "--suite", "lattice"]) == 0
    capsys.readouterr()
    replace_everywhere(monkeypatch, bubble.extremal_chain_words, chain_reversed(bubble.extremal_chain_words))
    assert main(["check", "2", "2", "--suite", "lattice"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["lattice.semidistributive_trim"]


def check_detail(argv, check_id, capsys):
    assert main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    return next(c["detail"] for c in checks if c["id"] == check_id)


def test_move_closure_witness(monkeypatch, capsys):
    original = bubble.order_relation
    replace_everywhere(monkeypatch, original, relation_without_rows(original))
    detail = check_detail(["check", "2", "2", "--suite", "order"], "order.move_closure", capsys)
    family = build_bubble_lattice(2, 2)
    u, v = (words.parse_word(t, 2, 2) for t in detail["witness"])
    mutated = bubble.order_relation(family.words)
    assert mutated[family.index(u), family.index(v)] != bubble.leq_bubble(u, v)


def test_shuffle_suborder_witness(monkeypatch, capsys):
    original = bubble.order_relation

    def everything_shuffle_below(ws, _shuffle=False):
        return np.ones((len(ws), len(ws)), dtype=bool) if _shuffle else original(ws)

    replace_everywhere(monkeypatch, original, everything_shuffle_below)
    detail = check_detail(["check", "2", "2", "--suite", "order"], "order.shuffle_suborder", capsys)
    ws = build_bubble_lattice(2, 2).words
    first = next([str(u), str(v)] for u in ws for v in ws if not bubble.leq_bubble(u, v))
    assert detail["witness"] == first


def test_yfill_closure_witness(monkeypatch, capsys):
    replace_everywhere(monkeypatch, words.y_fill, lambda u: u)  # never closes
    detail = check_detail(["check", "2", "2", "--suite", "lattice"], "lattice.yfill_closure", capsys)
    first = next(u for u in build_bubble_lattice(2, 2).words if len(u.ysupport) < 2)
    assert detail["witness"] == [str(first)] * 2


def whole_matrix_yfill_witness(family):
    """The first broken law of the y_fill check on whole N x N matrices, as
    ``check_yfill_closure`` computed it before its row blocks."""
    rel = family.relation
    fill = np.array([family.index(words.y_fill(u)) for u in family.words], dtype=np.intp)
    full = np.array([len(u.ysupport) == family.n for u in family.words], dtype=bool)
    own = np.arange(len(fill))
    broken = (fill[fill] != fill) | ~rel[own, fill] | ((fill == own) != full)
    bad = rel & ~rel[np.ix_(fill, fill)]
    bad[own[broken], fill[broken]] = True
    a, b = divmod(int(np.flatnonzero(bad)[0]), len(fill))
    return [str(family.words[a]), str(family.words[b])]


def y_fill_leftmost(u):
    """Each missing y_j just after the last y below j, else first: a fill
    that is extensive and idempotent but not monotone."""
    seq = u.letters
    for j in range(1, u.n + 1):
        if j not in u.ysupport:
            pos = max((p + 1 for p, l in enumerate(seq) if not l.is_x and l.index < j), default=0)
            seq = seq[:pos] + (words.Letter.y(j),) + seq[pos:]
    return words.ShuffleWord(seq, u.m, u.n)


@pytest.mark.parametrize("fault", [y_fill_leftmost, lambda u: u])
@pytest.mark.parametrize("block", [1, 70, checks._ROW_BLOCK])
def test_yfill_witness_is_the_first_broken_law(fault, block, monkeypatch):
    """The row-blocked check names the first pair, row-major, of the whole
    matrices, whatever the block."""
    replace_everywhere(monkeypatch, words.y_fill, fault)
    monkeypatch.setattr(checks, "_ROW_BLOCK", block)
    family = build_bubble_lattice(2, 2)
    result = checks.check_yfill_closure(family)
    assert result.status == "fail"
    assert result.detail == {"witness": whole_matrix_yfill_witness(family)}


def test_order_axioms_witness(monkeypatch, capsys):
    original = bubble.order_relation
    replace_everywhere(monkeypatch, original, relation_without_rows(original))
    detail = check_detail(["check", "2", "2", "--suite", "order"], "order.axioms", capsys)
    ws = build_bubble_lattice(2, 2).words
    rel = bubble.order_relation(ws)
    # the first pair, row-major, that is not reflexive or not antisymmetric
    first = next(
        [str(ws[a]), str(ws[b])]
        for a in range(len(ws))
        for b in range(len(ws))
        if (a == b and not rel[a, b]) or (a != b and rel[a, b] and rel[b, a])
    )
    assert detail["witness"] == first


def test_order_axioms_transitivity_witness(monkeypatch, capsys):
    original = bubble.order_relation

    def covers_only(ws, _shuffle=False):
        # the cover relation with its diagonal: reflexive and antisymmetric,
        # not transitive once a chain has two covers
        if _shuffle:
            return original(ws, _shuffle=True)
        src, dst, *_ = bubble._cover_steps(ws)
        rel = np.eye(len(ws), dtype=bool)
        rel[src, dst] = True
        return rel

    replace_everywhere(monkeypatch, original, covers_only)
    detail = check_detail(["check", "2", "1", "--suite", "order"], "order.axioms", capsys)
    family = build_bubble_lattice(2, 1)
    P, ws = family.poset, family.words
    u, v, w = (ws.index(words.parse_word(t, 2, 1)) for t in detail["witness"])
    assert v in P.up_adj[u] and w in P.up_adj[v] and w not in P.up_adj[u]
    # u is the first element with a two-step chain above it, v its first cover
    # with a cover of its own, w that cover's first
    assert u == min(a for a in range(P.n) if any(P.up_adj[c] for c in P.up_adj[a]))
    assert v == min(c for c in P.up_adj[u] if P.up_adj[c])
    assert w == min(P.up_adj[v])


def test_order_axioms_walks_no_bits_on_a_passing_family(monkeypatch, capsys):
    def no_walk(*args):
        raise AssertionError("walked the up-sets of R")

    monkeypatch.setattr(checks, "_masks", no_walk)
    assert main(["check", "3", "2", "--suite", "order"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_order_axioms_passes_a_transitive_relation_off_the_closure(monkeypatch, capsys):
    """One constructive cover dropped, R kept: the closure of the covers is
    no longer R, so order.axioms walks R, which is still an order, and
    passes, while order.covers_match_reduction names the first pair where
    the closure and R differ."""
    ws = build_bubble_lattice(2, 2).words
    original = bubble._cover_steps
    src, dst, *_ = original(ws)
    dropped = int(np.flatnonzero(src == 0)[0])  # the first step out of ws[0]
    lost = (ws[0], ws[dst[dropped]])

    def drops_first_cover(words):
        return tuple(np.delete(a, dropped) for a in original(words))

    def above(u):
        seen, todo = {u}, [u]
        while todo:
            low = todo.pop()
            for c, _ in upper_covers(low):
                if (low, c) != lost and c not in seen:
                    seen.add(c)
                    todo.append(c)
        return seen

    ups = [above(u) for u in ws]
    first = next(
        [str(u), str(v)] for u, up in zip(ws, ups) for v in ws if (v in up) != bubble.leq_bubble(u, v)
    )
    replace_everywhere(monkeypatch, original, drops_first_cover)
    assert main(["check", "2", "2", "--suite", "order"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["order.covers_match_reduction"]
    detail = next(c["detail"] for c in report["checks"] if c["id"] == "order.covers_match_reduction")
    assert detail["witness"] == first


def test_covers_match_reduction_witness(monkeypatch, capsys):
    ws = build_bubble_lattice(2, 2).words

    def above(u):
        """The words reached from u by the covers other than transpositions."""
        seen, todo = {u}, [u]
        while todo:
            for c, step in upper_covers(todo.pop()):
                if step.kind != "transposition" and c not in seen:
                    seen.add(c)
                    todo.append(c)
        return seen

    # the first pair, row-major, where the closure of the mutant's covers and
    # the bubble order disagree
    ups = [above(u) for u in ws]
    first = next(
        [str(u), str(v)] for u, up in zip(ws, ups) for v in ws if (v in up) != bubble.leq_bubble(u, v)
    )
    original = bubble._cover_steps
    replace_everywhere(monkeypatch, original, covers_without_transpositions(original))
    detail = check_detail(["check", "2", "2", "--suite", "order"], "order.covers_match_reduction", capsys)
    assert detail["witness"] == first


@pytest.mark.parametrize("block", [1, 70])
def test_order_witnesses_do_not_depend_on_the_row_block(block, monkeypatch, capsys):
    """Every order check fails, and names the same witness whether its
    matrices are compared in one block or a row or two at a time."""
    original = bubble.order_relation
    supports_only = relation_without_rows(original)

    def everything_shuffle_below(ws, _shuffle=False):
        return np.ones((len(ws), len(ws)), dtype=bool) if _shuffle else supports_only(ws)

    replace_everywhere(monkeypatch, original, everything_shuffle_below)
    assert main(["check", "2", "2", "--suite", "order"]) == 1
    whole = json.loads(capsys.readouterr().out)
    assert len(whole["violations"]) == 4
    monkeypatch.setattr(checks, "_ROW_BLOCK", block)
    assert main(["check", "2", "2", "--suite", "order"]) == 1
    assert json.loads(capsys.readouterr().out) == whole


def test_duality_witness(monkeypatch, capsys):
    family = build_bubble_lattice(2, 2)
    P, ws = family.poset, family.words
    # with the identity for dualize: the first pair, row-major, where v covers
    # u but u does not cover v, or the reverse
    first = next(
        [str(ws[a]), str(ws[b])]
        for a in range(P.n)
        for b in range(P.n)
        if (b in P.up_adj[a]) != (a in P.up_adj[b])
    )
    replace_everywhere(monkeypatch, words.dualize, dualize_keeps_letters(words.dualize))
    detail = check_detail(["check", "2", "2", "--suite", "duality"], "duality.anti_isomorphism", capsys)
    assert detail["witness"] == first


def test_duality_witness_names_two_words_with_one_image(monkeypatch, capsys):
    original = words.dualize

    def drops_last_letter(u):
        return original(words.ShuffleWord(u.letters[:-1], u.m, u.n))

    replace_everywhere(monkeypatch, original, drops_last_letter)
    detail = check_detail(["check", "3", "2", "--suite", "duality"], "duality.anti_isomorphism", capsys)
    ws = build_bubble_lattice(3, 2).words
    u, v = (words.parse_word(t, 3, 2) for t in detail["witness"])
    assert ws.index(u) < ws.index(v) and drops_last_letter(u) == drops_last_letter(v)
    # v is the first word whose image an earlier word already has
    images = [drops_last_letter(x) for x in ws]
    assert ws.index(v) == min(i for i in range(len(ws)) if images[i] in images[:i])


def test_cu_witness_is_the_first_violation(monkeypatch, capsys):
    family = build_bubble_lattice(2, 2)
    P = family.poset
    mutant = pair_label_reversed(labeling.label_from_step)
    replace_everywhere(monkeypatch, labeling.label_from_step, mutant)
    detail = check_detail(["check", "2", "2", "--suite", "labeling"], "labeling.cu_conditions", capsys)
    # the mutated labels, each edge's step read back from the oracle's covers
    labels = {(a, b): mutant(next(s for v, s in upper_covers(family.words[a]) if v == family.words[b])) for a, b in P.edges()}
    S = labeling.build_label_poset(2, 2)
    violations = oracle_verify_cu_labeling(P, labels, S.leq).as_dict()["violations"]
    condition, found = next((c, v[0]) for c, v in violations.items() if v)
    assert detail == {
        "polygons": 45,
        "witness": [condition, str(family.words[found["bottom"]]), str(family.words[found["top"]])],
    }


def test_cu_witness_names_the_first_unused_label(monkeypatch, capsys):
    original = labeling.build_label_poset

    def one_label_more(m, n):
        S = original(m, n)
        return labeling.LabelPoset(m, n, S.labels + (labeling.BubbleLabel.xlab(m + 1),), S.poset)

    replace_everywhere(monkeypatch, original, one_label_more)
    detail = check_detail(["check", "2", "2", "--suite", "labeling"], "labeling.cu_conditions", capsys)
    assert detail == {"polygons": 45, "witness": ["unused", "x3"]}


def test_crown_witness(monkeypatch, capsys):
    family = build_bubble_lattice(2, 2)
    P = family.poset
    ats = posets.atoms(P)
    replace_everywhere(monkeypatch, posets.kappa, kappa_least_not_above(posets.kappa))
    detail = check_detail(["check", "2", "2", "--suite", "crown"], "crown.witness", capsys)
    # every kappa is the bottom, so the first atom is not below the second
    # atom's kappa
    assert detail == {"witness": [str(family.words[ats[0]]), str(family.words[P.bottom()])]}
