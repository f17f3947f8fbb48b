"""Injected faults must show up as violations in a `check` report.

Each mutant replaces one function in every bubblelattice namespace that
holds it, then runs the full `check` on (2,2) and (3,2).  The report must
come back (no traceback), exit with code 1, and name the checks that guard
the broken fact among its violations.
"""

import json

import numpy as np
import pytest

from bubblelattice import bubble, galois, words
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
}


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(mutant, m, n, monkeypatch, capsys):
    target, make, guards = MUTANTS[mutant]
    original = target()
    replace_everywhere(monkeypatch, original, make(original))
    code = main(["check", str(m), str(n)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert guards <= set(report["violations"])
