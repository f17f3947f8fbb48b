"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the stated runtime budget where one exists.  Budgets are wall
clock for the whole criterion, including any lattice construction it
needs.
"""

import time

from bubblelattice import checks, posets
from bubblelattice.bubble import build_bubble_lattice
from bubblelattice.cli import main
from bubblelattice.hochschild import enumerate_triwords, verify_hochschild_iso

from conftest import splits

TABLE_21 = {
    ("-", frozenset()),
    ("x1", frozenset()),
    ("x2", frozenset()),
    ("y1", frozenset()),
    ("x1.x2", frozenset()),
    ("x1.y1", frozenset()),
    ("x2.y1", frozenset()),
    ("y1.x1", frozenset({(1, 1)})),
    ("y1.x2", frozenset({(2, 1)})),
    ("x1.x2.y1", frozenset()),
    ("x1.y1.x2", frozenset({(2, 1)})),
    ("y1.x1.x2", frozenset({(1, 1), (2, 1)})),
}


def report(num: int, description: str, ok: bool, elapsed: float, budget=None) -> None:
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"[criterion {num:02d}] {description}: {status} ({elapsed:.2f}s{budget_note})")
    assert ok, f"criterion {num} checks failed"
    assert within, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def parse_csv_rows(text: str):
    rows = []
    for line in text.splitlines()[1:]:
        word, _, inv = line.partition(",")
        inv = inv.strip('"')
        pairs = frozenset(
            (int(tok[2]), int(tok[5])) for tok in inv.split() if tok
        )
        rows.append((word, pairs))
    return rows


def test_c01_element_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BUBBLELATTICE_OUTDIR", str(tmp_path))
    started = time.monotonic()
    code = main(["generate", "2", "1", "--csv"])
    elapsed = time.monotonic() - started
    capsys.readouterr()
    rows = parse_csv_rows((tmp_path / "bubble_2_1.csv").read_text())
    ok = code == 0 and set(rows) == TABLE_21 and len(rows) == 12
    # the documented canonical order: lexicographic on letter codes
    ok = ok and [w for w, _ in rows] == sorted(
        (w for w, _ in rows), key=lambda t: [(c[0], int(c[1:])) for c in t.split(".")] if t != "-" else []
    )
    report(1, "element/inversion table of the (2,1) family", ok, elapsed, budget=1.0)


def test_c02_unique_joins():
    started = time.monotonic()
    ok = True
    for m, n in splits(6):
        family = build_bubble_lattice(m, n)
        ok = ok and checks.check_unique_joins(family).ok
    elapsed = time.monotonic() - started
    report(2, "unique minimal upper bounds equal the join formula (m+n<=6)", ok, elapsed, budget=60.0)


def test_c03_hasse_regular(bubble):
    started = time.monotonic()
    ok = all(checks.check_hasse_regular(bubble(m, n)).ok for m, n in splits(6))
    report(3, "every element has Hasse degree m+n (m+n<=6)", ok, time.monotonic() - started)


def test_c04_extremal_counts(bubble):
    started = time.monotonic()
    ok = all(checks.check_extremal_counts(bubble(m, n)).ok for m, n in splits(6))
    report(4, "length = |J| = |M| = mn+m+n (m+n<=6)", ok, time.monotonic() - started)


def test_c05_semidistributive_trim(bubble):
    started = time.monotonic()
    ok = all(checks.check_semidistributive_trim(bubble(m, n)).ok for m, n in splits(5))
    report(5, "semidistributive and trim (m+n<=5)", ok, time.monotonic() - started, budget=120.0)


def test_c06_cu_labeling(bubble):
    started = time.monotonic()
    ok = True
    for m, n in splits(5):
        family = bubble(m, n)
        ok = ok and checks.check_cu_labeling(family).ok
        ok = ok and checks.check_labeling_fibers(family).ok
    report(6, "CU conditions hold and fibers match the jsd labeling (m+n<=5)", ok, time.monotonic() - started)


def test_c07_duality(bubble):
    started = time.monotonic()
    ok = all(checks.check_duality(bubble(m, n)).ok for m, n in splits(6))
    report(7, "anti-isomorphism with the swapped family (m+n<=6)", ok, time.monotonic() - started)


def test_c08_same_support(bubble):
    started = time.monotonic()
    ok = all(checks.check_same_support_distributive(bubble(m, n)).ok for m, n in splits(6))
    report(8, "fixed-support intervals distributive with binomial size (m+n<=6)", ok, time.monotonic() - started)


def test_c09_closure_laws(bubble):
    started = time.monotonic()
    ok = all(checks.check_yfill_closure(bubble(m, n)).ok for m, n in splits(6))
    report(9, "y-filling is idempotent, extensive and monotone (m+n<=6)", ok, time.monotonic() - started)


def test_c10_hochschild(bubble):
    started = time.monotonic()
    ok = all(verify_hochschild_iso(bubble(n - 1, 1)) for n in range(1, 8))
    ok = ok and all(
        len(enumerate_triwords(n)) == 2 ** (n - 2) * (n + 3) for n in range(2, 9)
    )
    report(10, "triword encoding is an isomorphism (n<=7) with counted image (n<=8)", ok, time.monotonic() - started, budget=30.0)


def test_c11_galois(bubble):
    started = time.monotonic()
    ok = all(checks.check_galois(bubble(m, n)).ok for m, n in splits(5))
    report(11, "generic, shortcut and explicit Galois graphs agree; pairs rebuild the lattice (m+n<=5)", ok, time.monotonic() - started, budget=120.0)


def test_c12_crown(bubble):
    started = time.monotonic()
    ok = True
    for m, n in splits(6):
        family = bubble(m, n)
        P = family.poset
        witness = posets.find_crown(P)
        k = m + n
        ok = ok and witness.size == k
        ok = ok and len(set(witness.kappas)) == k
        for i, a in enumerate(witness.atoms):
            for j, kb in enumerate(witness.kappas):
                ok = ok and P.leq(a, kb) == (i != j)
        if k >= 3:
            # the 2k points are distinct and induce the exact crown covers
            points = list(witness.atoms) + list(witness.kappas)
            ok = ok and len(set(points)) == 2 * k
            sub = P.subposet(points)
            ok = ok and set(sub.edges()) == {
                (i, k + j) for i in range(k) for j in range(k) if i != j
            }
    report(12, "atoms and kappas witness an (m+n)-crown (m+n<=6)", ok, time.monotonic() - started)


def test_c13_irreducibles_poset(bubble):
    started = time.monotonic()
    ok = all(checks.check_irreducibles_poset(bubble(m, n)).ok for m, n in splits(6))
    report(13, "join-irreducibles form an m-antichain plus n chains of m+1 (m+n<=6)", ok, time.monotonic() - started)
