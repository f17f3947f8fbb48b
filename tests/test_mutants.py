"""Injected faults must show up as violations in a `check` report.

Each mutant replaces one function in every bubblelattice namespace that
holds it, then runs the full `check` on (2,2) and (3,2), or on (3,1) where
the guarding suite needs n = 1.  The report must come back (no traceback),
exit with code 1, and name the checks that guard the broken fact among its
violations.
"""

import json

import numpy as np
import pytest

from bubblelattice import bubble, galois, hochschild, labeling, posets, words
from bubblelattice.bubble import build_bubble_lattice
from bubblelattice.cli import main

from conftest import replace_everywhere


def relation_without_rows(original):
    """The bubble relation reduced to its two support containments."""

    def mutant(ws):
        _, shuffle = original(ws)
        xs = np.array([w.code[0] for w in ws])
        ys = np.array([w.code[1] for w in ws])
        return ((xs & ~xs[:, None]) == 0) & ((ys[:, None] & ~ys) == 0), shuffle

    return mutant


def covers_without_transpositions(original):
    def mutant(u):
        return [(c, step) for c, step in original(u) if step.kind != "transposition"]

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


def join_without_second_rows(original):
    """The join with the second word's inversion rows taken as empty."""

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


def chain_reversed(original):
    def mutant(m, n):
        return original(m, n)[::-1]

    return mutant


MUTANTS = {
    "relation_drops_rows": (
        lambda: bubble.order_relations,
        relation_without_rows,
        {"order.axioms", "order.move_closure"},
    ),
    "covers_drop_transpositions": (
        lambda: bubble.upper_covers,
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
        lambda: bubble.join,
        join_without_second_rows,
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
    "extremal_chain_reversed": (
        lambda: bubble.extremal_chain_words,
        chain_reversed,
        {"lattice.semidistributive_trim", "galois.graphs_coincide"},
    ),
}
# the hochschild suite skips every n != 1
FAMILIES = {"sigma_tilde_off_by_one": ((3, 1),)}
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


def test_unique_joins_witness_is_the_first_failing_pair(monkeypatch, capsys):
    original = bubble.join
    mutant = join_without_second_rows(original)
    replace_everywhere(monkeypatch, original, mutant)
    assert main(["check", "2", "2", "--suite", "lattice"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    detail = next(c["detail"] for c in checks if c["id"] == "lattice.unique_joins")
    ws = build_bubble_lattice(2, 2).words
    first = next(
        [str(u), str(v)]
        for a, u in enumerate(ws)
        for v in ws[a:]
        if mutant(u, v) != original(u, v)
    )
    assert detail["witness"] == first
    assert detail["failing_pairs"] > 0
