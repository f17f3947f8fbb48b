"""Machine checks for the structural theorems, at one alphabet pair a time.

Each check returns a CheckResult; suites bundle related checks.  Where a
claim has an independent brute-force route (unique minimal upper bounds,
cover relations from closure of the elementary moves), the check runs both
routes and compares, so a bug in either side shows up as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import posets
from .bubble import (
    LatticeFamily,
    build_bubble_lattice,
    extremal_chain_words,
    join,
    leq_bubble,
    leq_shuffle,
    meet,
    same_support_interval,
)
from .errors import BubbleLatticeError
from .galois import (
    bubble_galois_explicit,
    galois_graph,
    galois_graph_sd,
    max_orthogonal_pairs,
    order_irreducibles,
)
from .hochschild import enumerate_triwords, verify_hochschild_iso
from .labeling import (
    build_label_poset,
    check_cu_equals_jsd,
    edge_labels,
    lambda_bubble,
    verify_cu_labeling,
)
from .posets import FinitePoset, _bits
from .words import ShuffleWord, dualize, y_fill

SUITE_NAMES = ("order", "lattice", "labeling", "galois", "hochschild", "duality", "crown")


@dataclass
class CheckResult:
    id: str
    status: str  # "pass" | "fail" | "skip"
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _result(check_id: str, ok: bool, detail: Optional[dict] = None) -> CheckResult:
    return CheckResult(check_id, "pass" if ok else "fail", detail or {})


# -- brute-force oracles ------------------------------------------------------


def _move_closure(family: LatticeFamily) -> list[int]:
    """Reachability of the elementary moves, as bitmasks per word.

    Independent of both the order characterization and the cover rules: one
    step deletes any x, inserts any missing y at every admissible position,
    or swaps one adjacent x-y pair; the relation is then closed reflexively
    and transitively.
    """
    from .words import Letter

    index = family._index
    n = len(family.words)
    step = [1 << i for i in range(n)]
    for i, w in enumerate(family.words):
        seq = w.letters
        for pos, letter in enumerate(seq):
            if letter.is_x:
                step[i] |= 1 << index[ShuffleWord(seq[:pos] + seq[pos + 1:], w.m, w.n)]
                if pos + 1 < len(seq) and not seq[pos + 1].is_x:
                    swapped = seq[:pos] + (seq[pos + 1], letter) + seq[pos + 2:]
                    step[i] |= 1 << index[ShuffleWord(swapped, w.m, w.n)]
        present = set(w.ysupport)
        for j in range(1, w.n + 1):
            if j in present:
                continue
            for pos in range(len(seq) + 1):
                candidate = seq[:pos] + (Letter.y(j),) + seq[pos:]
                try:
                    bigger = ShuffleWord(candidate, w.m, w.n)
                except BubbleLatticeError:
                    continue
                step[i] |= 1 << index[bigger]
    # transitive closure by iterated squaring of the successor masks
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = step[i]
            for j in _bits(step[i]):
                acc |= step[j]
            if acc != step[i]:
                step[i] = acc
                changed = True
    return step


def bruteforce_minimal_upper_bounds(P: FinitePoset, a: int, b: int) -> list[int]:
    """Minimal elements of the set of common upper bounds, by enumeration."""
    common = P.up[a] & P.up[b]
    return [
        w
        for w in _bits(common)
        if (P.down[w] & common) == (1 << w)
    ]


# -- the checks ---------------------------------------------------------------


def check_order_axioms(family: LatticeFamily) -> CheckResult:
    """Reflexivity, antisymmetry and transitivity of the bubble comparison."""
    words = family.words
    n = len(words)
    ups = [0] * n
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if leq_bubble(u, v):
                ups[i] |= 1 << j
    ok = all(ups[i] >> i & 1 for i in range(n))
    for i in range(n):
        for j in _bits(ups[i]):
            if i != j and ups[j] >> i & 1:
                ok = False  # antisymmetry
            if ups[j] & ~ups[i]:
                ok = False  # transitivity
    return _result("order.axioms", ok)


def check_move_closure(family: LatticeFamily) -> CheckResult:
    closure = _move_closure(family)
    words = family.words
    ok = True
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if bool(closure[i] >> j & 1) != leq_bubble(u, v):
                ok = False
    return _result("order.move_closure", ok)


def check_shuffle_suborder(family: LatticeFamily) -> CheckResult:
    words = family.words
    ok = all(
        leq_bubble(u, v)
        for u in words
        for v in words
        if leq_shuffle(u, v)
    )
    return _result("order.shuffle_suborder", ok)


def check_covers_by_reduction(family: LatticeFamily) -> CheckResult:
    """Constructive covers against the transitive reduction of the order."""
    words = family.words
    reduced = FinitePoset.from_leq(
        len(words), lambda i, j: leq_bubble(words[i], words[j])
    )
    ok = set(reduced.edges()) == set(family.poset.edges())
    return _result("order.covers_match_reduction", ok)


def check_unique_joins(family: LatticeFamily) -> CheckResult:
    """Brute-force unique minimal upper bounds equal the filling formula."""
    P = family.poset
    dual = P.dual()
    words = family.words
    bad = 0
    for a in range(len(words)):
        for b in range(a, len(words)):
            minimals = bruteforce_minimal_upper_bounds(P, a, b)
            if len(minimals) != 1 or words[minimals[0]] != join(words[a], words[b]):
                bad += 1
            maximals = bruteforce_minimal_upper_bounds(dual, a, b)
            if len(maximals) != 1 or words[maximals[0]] != meet(words[a], words[b]):
                bad += 1
    return _result("lattice.unique_joins", bad == 0, {"failing_pairs": bad})


def check_hasse_regular(family: LatticeFamily) -> CheckResult:
    degree = family.m + family.n
    ok = all(family.poset.degree(i) == degree for i in range(len(family.words)))
    up_ok = all(
        len(family.poset.up_adj[i])
        == len(w.xsupport) + (family.n - len(w.ysupport))
        for i, w in enumerate(family.words)
    )
    return _result("lattice.hasse_regular", ok and up_ok, {"degree": degree})


def check_extremal_counts(family: LatticeFamily) -> CheckResult:
    m, n = family.m, family.n
    expected = m * n + m + n
    P = family.poset
    nj = len(posets.join_irreducibles(P))
    nm = len(posets.meet_irreducibles(P))
    ok = (
        posets.is_extremal(P)
        and P.length() == expected
        and nj == expected
        and nm == expected
    )
    return _result(
        "lattice.extremal_counts",
        ok,
        {"length": P.length(), "join_irreducibles": nj, "meet_irreducibles": nm},
    )


def check_semidistributive_trim(family: LatticeFamily) -> CheckResult:
    P = family.poset
    sd = posets.is_semidistributive(P)
    seed = [family.index(w) for w in extremal_chain_words(family.m, family.n)]
    trim = posets.is_trim(P, seed_chains=[seed])
    return _result(
        "lattice.semidistributive_trim", sd and trim, {"semidistributive": sd, "trim": trim}
    )


def check_same_support_distributive(family: LatticeFamily) -> CheckResult:
    from itertools import combinations

    m, n = family.m, family.n
    ok = True
    for a in range(m + 1):
        for xsupp in combinations(range(1, m + 1), a):
            for b in range(n + 1):
                for ysupp in combinations(range(1, n + 1), b):
                    words, poset = same_support_interval(xsupp, ysupp, m, n)
                    if len(words) != math.comb(a + b, a):
                        ok = False
                    if not posets.is_lattice(poset) or not posets.is_distributive(poset):
                        ok = False
    return _result("lattice.same_support_distributive", ok)


def check_yfill_closure(family: LatticeFamily) -> CheckResult:
    words = family.words
    filled = {u: y_fill(u) for u in words}
    ok = all(filled[u] == y_fill(filled[u]) for u in words)  # idempotent
    ok = ok and all(leq_bubble(u, filled[u]) for u in words)  # extensive
    for u in words:
        for v in words:
            if leq_bubble(u, v) and not leq_bubble(filled[u], filled[v]):
                ok = False  # monotone
    closed_ok = all(
        (filled[u] == u) == (u.ysupport == tuple(range(1, family.n + 1)))
        for u in words
    )
    return _result("lattice.yfill_closure", ok and closed_ok)


def check_cu_labeling(family: LatticeFamily) -> CheckResult:
    P = family.poset
    labels = edge_labels(family)
    S = build_label_poset(family.m, family.n)
    report = verify_cu_labeling(P, labels, S.leq)
    surjective = set(labels.values()) == set(S.labels)
    return _result(
        "labeling.cu_conditions",
        report.ok and surjective,
        {"polygons": report.polygon_count},
    )


def check_labeling_fibers(family: LatticeFamily) -> CheckResult:
    labels = edge_labels(family)
    return _result(
        "labeling.fibers_match_jsd", check_cu_equals_jsd(family.poset, labels)
    )


def check_duality(family: LatticeFamily, cap: Optional[int] = None) -> CheckResult:
    co = build_bubble_lattice(family.n, family.m, cap=cap)
    mapping = [co.index(dualize(w)) for w in family.words]
    co_edges = set(co.poset.edges())
    ok = len(set(mapping)) == len(mapping)
    ok = ok and all(
        (mapping[b], mapping[a]) in co_edges for a, b in family.poset.edges()
    )
    ok = ok and len(family.poset.edges()) == len(co_edges)
    return _result("duality.anti_isomorphism", ok)


def check_galois(family: LatticeFamily) -> CheckResult:
    P = family.poset
    seed = [family.index(w) for w in extremal_chain_words(family.m, family.n)]
    ordering = order_irreducibles(P, chain=seed)
    generic = galois_graph(P, ordering)
    shortcut = galois_graph_sd(P, ordering)
    if generic.arcs != shortcut.arcs:
        return _result("galois.graphs_coincide", False, {"stage": "sd-shortcut"})
    vertex_label = {
        s + 1: lambda_bubble(
            family.words[P.down_adj[ordering.jseq[s]][0]], family.words[ordering.jseq[s]]
        )
        for s in range(ordering.k)
    }
    explicit = bubble_galois_explicit(family.m, family.n)
    relabeled = generic.relabeled(vertex_label)
    if set(relabeled.vertices) != set(explicit.vertices) or relabeled.arcs != explicit.arcs:
        return _result("galois.graphs_coincide", False, {"stage": "explicit"})
    mop = max_orthogonal_pairs(generic)
    iso = posets.is_isomorphic(mop.poset, P)
    return _result(
        "galois.graphs_coincide",
        iso is not None,
        {"k": ordering.k, "reconstruction": "isomorphic" if iso else "failed"},
    )


def check_hochschild(n: int) -> CheckResult:
    ok = verify_hochschild_iso(n)
    count_ok = True
    if n >= 2:
        count_ok = len(enumerate_triwords(n)) == 2 ** (n - 2) * (n + 3)
    return _result(
        "hochschild.iso", ok and count_ok, {"n": n, "triwords": len(enumerate_triwords(n))}
    )


def check_crown(family: LatticeFamily) -> CheckResult:
    P = family.poset
    witness = posets.find_crown(P)
    k = family.m + family.n
    ok = witness.size == k and len(set(witness.kappas)) == witness.size
    for i, a in enumerate(witness.atoms):
        for j, kb in enumerate(witness.kappas):
            if P.leq(a, kb) != (i != j):
                ok = False
    # the crown forces dimension >= k; reported, not asserted (dimension
    # itself is never computed here)
    return _result(
        "crown.witness", ok, {"atoms": witness.size, "dimension_lower_bound": k}
    )


def check_irreducibles_poset(family: LatticeFamily) -> CheckResult:
    """The join-irreducibles form an antichain plus chains, sizes m and m+1."""
    P = family.poset
    m, n = family.m, family.n
    jirr = sorted(posets.join_irreducibles(P))
    if not jirr:
        return _result("lattice.irreducibles_poset", m == 0 and n == 0)
    sub = P.subposet(jirr)
    comps = posets._comparability_components(sub, range(sub.n))
    sizes = sorted(len(c) for c in comps)
    expected = sorted([1] * m + [m + 1] * n)
    ok = sizes == expected
    for comp in comps:
        if len(comp) > 1 and not all(
            sub.leq(a, b) or sub.leq(b, a) for a in comp for b in comp
        ):
            ok = False
    return _result("lattice.irreducibles_poset", ok, {"component_sizes": sizes})


# -- suites -------------------------------------------------------------------


def run_suite(name: str, m: int, n: int, cap: Optional[int] = None) -> list[CheckResult]:
    if name == "hochschild":
        if n != 1:
            return [CheckResult("hochschild.iso", "skip", {"reason": "needs n=1"})]
        return [check_hochschild(m + 1)]
    family = build_bubble_lattice(m, n, cap=cap)
    if name == "order":
        return [
            check_order_axioms(family),
            check_move_closure(family),
            check_shuffle_suborder(family),
            check_covers_by_reduction(family),
        ]
    if name == "lattice":
        return [
            check_unique_joins(family),
            check_hasse_regular(family),
            check_extremal_counts(family),
            check_semidistributive_trim(family),
            check_same_support_distributive(family),
            check_yfill_closure(family),
            check_irreducibles_poset(family),
        ]
    if name == "labeling":
        return [check_cu_labeling(family), check_labeling_fibers(family)]
    if name == "galois":
        return [check_galois(family)]
    if name == "duality":
        return [check_duality(family, cap=cap)]
    if name == "crown":
        return [check_crown(family)]
    raise ValueError(f"unknown suite {name!r}")
