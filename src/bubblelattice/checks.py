"""Machine checks for the structural theorems, at one alphabet pair a time.

Each check returns a CheckResult; suites bundle related checks.  Where a
claim has an independent route (joins and meets from the certified cover
recursion, cover relations from closure of the elementary moves), the check
runs both routes and compares, so a bug in either side shows up as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import posets
from .bubble import (
    LatticeFamily,
    _cover_steps,
    extremal_chain_words,
    filling_tables,
    order_relation,
)
from .errors import KappaMissing
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
    verify_cu_labeling,
)
from .posets import _ROW_BLOCK, FinitePoset, _bits, _masks, _matrix, _packed, _reach
from .words import Letter, dualize, y_fill

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


def error_result(check_id: str, exc: Exception) -> CheckResult:
    """The failure entry of a check that raised instead of answering."""
    return CheckResult(check_id, "fail", {"error": type(exc).__name__, "message": str(exc)})


def _witness(words, bad: np.ndarray, lo: int = 0, col: int = 0) -> dict:
    """``{"witness": [u, v]}`` for the first true entry of the pair matrix
    ``bad`` in row-major order, whose row a stands for word lo + a and
    column b for word col + b; ``{}`` when there is none."""
    hits = np.flatnonzero(bad)
    if not len(hits):
        return {}
    a, b = divmod(int(hits[0]), bad.shape[1])
    return _pair(words, [(lo + a, col + b)])


def _first_witness(words, bad) -> dict:
    """``_witness`` of the first pair marked by ``bad``, which maps a slice of
    rows to their block of the pair matrix; blocks hold ``_ROW_BLOCK`` entries."""
    step = max(1, _ROW_BLOCK // max(len(words), 1))
    for lo in range(0, len(words), step):
        detail = _witness(words, bad(slice(lo, lo + step)), lo)
        if detail:
            return detail
    return {}


def _pair(words, pairs) -> dict:
    """``{"witness": [u, v]}`` for the first id pair (a, b) of ``pairs``;
    ``{}`` when there is none."""
    if not pairs:
        return {}
    a, b = pairs[0]
    return {"witness": [str(words[a]), str(words[b])]}


# -- brute-force oracles ------------------------------------------------------


def _move_closure(family: LatticeFamily) -> list[int]:
    """Reachability of the elementary moves, as bitmasks per word.

    Independent of both the order characterization and the cover rules: one
    step deletes any x, swaps one adjacent x-y pair, or inserts a missing y_j
    at each admissible slot, after every present y below j and before every
    present y above it.  Each move is looked up by its letters, so a move out
    of the family raises KeyError.  Every move goes up, so the moves form an
    acyclic graph, closed reflexively and transitively by one pass in
    topological order.
    """
    index = {w.letters: i for i, w in enumerate(family.words)}
    step: list[set[int]] = [set() for _ in family.words]
    for i, w in enumerate(family.words):
        seq = w.letters
        for pos, letter in enumerate(seq):
            if letter.is_x:
                step[i].add(index[seq[:pos] + seq[pos + 1:]])
                if pos + 1 < len(seq) and not seq[pos + 1].is_x:
                    step[i].add(index[seq[:pos] + (seq[pos + 1], letter) + seq[pos + 2:]])
        ys = [(pos, letter.index) for pos, letter in enumerate(seq) if not letter.is_x]
        for j in range(1, w.n + 1):
            if j in w.ysupport:
                continue
            lo = max((pos + 1 for pos, t in ys if t < j), default=0)
            hi = min((pos for pos, t in ys if t > j), default=len(seq))
            for pos in range(lo, hi + 1):
                step[i].add(index[seq[:pos] + (Letter.y(j),) + seq[pos:]])
    return _reach(len(step), step)[1]


# -- the checks ---------------------------------------------------------------


def check_order_axioms(family: LatticeFamily) -> CheckResult:
    """Reflexivity, antisymmetry and transitivity of the bubble comparison.
    The closure of the covers is an order, as ``FinitePoset`` refuses a
    cycle, so a relation equal to it passes all three.  Only when the two
    differ are the up-sets of the relation walked: the witness is the first
    pair (u, u) with u not below itself or (u, v) with u <= v <= u, else the
    first triple (u, v, w) with u <= v <= w but not u <= w."""
    rel, P = family.relation, family.poset
    words = family.words
    detail = _first_witness(words, lambda rows: _matrix(P.up[rows], P.n) != rel[rows])
    if detail:
        ups, detail = _masks(rel), {}
        for i, up in enumerate(ups):
            # bit i if u_i is not below itself, bit j != i if u_i <= u_j <= u_i
            bad = (1 << i & ~up) | sum(1 << j for j in _bits(up & ~(1 << i)) if ups[j] >> i & 1)
            if bad:
                detail = _pair(words, [(i, next(_bits(bad)))])
                break
        else:
            hit = next(((i, j) for i, up in enumerate(ups) for j in _bits(up) if ups[j] & ~up), None)
            if hit:
                i, j = hit
                w = next(_bits(ups[j] & ~ups[i]))
                detail = {"witness": [str(words[i]), str(words[j]), str(words[w])]}
    return _result("order.axioms", not detail, detail)


def check_move_closure(family: LatticeFamily) -> CheckResult:
    closure, rel, count = _packed(_move_closure(family)), family.relation, len(family.words)

    def bad(rows):
        return np.unpackbits(closure[rows], axis=1, count=count, bitorder="little").view(bool) != rel[rows]

    detail = _first_witness(family.words, bad)
    return _result("order.move_closure", not detail, detail)


def check_shuffle_suborder(family: LatticeFamily) -> CheckResult:
    bubble, shuffle = family.relation, order_relation(family.words, _shuffle=True)
    detail = _first_witness(family.words, lambda rows: shuffle[rows] & ~bubble[rows])
    return _result("order.shuffle_suborder", not detail, detail)


def check_covers_by_reduction(family: LatticeFamily) -> CheckResult:
    """Constructive covers against the transitive reduction of the code
    relation R.  ``FinitePoset`` refuses a cycle and any edge that is not a
    cover of its closure, so the covers are the reduction of R iff their
    closure is R; the witness is the first pair where the two differ."""
    P, rel = family.poset, family.relation
    detail = _first_witness(family.words, lambda rows: _matrix(P.up[rows], P.n) != rel[rows])
    return _result("order.covers_match_reduction", not detail, detail)


def check_unique_joins(family: LatticeFamily) -> CheckResult:
    """The lattice tables equal the filling formula, compared block by block
    on the pairs a <= b, which ``filling_tables`` yields as the columns lo..
    of rows lo..; the first failing pair in row-major order is the witness.
    Only the join walk carries a certificate (NotALattice on two minimal
    upper bounds): a finite join-semilattice with a bottom is a lattice, so
    the meet table needs none of its own, and the formula is compared with
    both tables entry by entry."""
    join_table, meet_table = posets.lattice_tables(family.poset)
    words = family.words
    detail = {"failing_pairs": 0}
    for lo, joins, meets in filling_tables(words):
        rows = slice(lo, lo + len(joins))
        bad = np.triu((joins != join_table[rows, lo:]).astype(np.int64) + (meets != meet_table[rows, lo:]))
        if "witness" not in detail:
            detail.update(_witness(words, bad, lo, lo))
        detail["failing_pairs"] += int(bad.sum())
    return _result("lattice.unique_joins", not detail["failing_pairs"], detail)


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
    ok = P.length() == expected and nj == expected and nm == expected
    return _result(
        "lattice.extremal_counts",
        ok,
        {"length": P.length(), "join_irreducibles": nj, "meet_irreducibles": nm},
    )


def check_semidistributive_trim(family: LatticeFamily) -> CheckResult:
    P = family.poset
    sd = posets.is_semidistributive(P)
    # trim on the paper's own chain: a search for another chain would hide a wrong one
    seed = [family.index(w) for w in extremal_chain_words(family.m, family.n)]
    trim = posets.is_extremal(P) and posets.is_left_modular_chain(P, seed)
    return _result(
        "lattice.semidistributive_trim", sd and trim, {"semidistributive": sd, "trim": trim}
    )


def check_same_support_distributive(family: LatticeFamily) -> CheckResult:
    """Each of the 2^(m+n) support classes has C(a+b, a) words and, ordered
    by the code relation (inversion inclusion on equal supports), is a
    distributive lattice.  Classes with byte-equal relation matrices share
    one verdict, computed once; every class's own matrix is still read.  A
    matrix that is not an order fails its class.  The witness is the first
    word, in family order, of the first failing class."""
    classes: dict[tuple[int, int], list[int]] = {}
    for i, w in enumerate(family.words):
        classes.setdefault(w.code[:2], []).append(i)
    rel = family.relation
    verdicts: dict[bytes, bool] = {}
    detail = {}
    for (xs, ys), ids in classes.items():
        sub = rel[np.ix_(ids, ids)]
        key = sub.tobytes()  # k * k bytes: equal keys are equal k x k matrices
        if key not in verdicts:
            try:
                poset = FinitePoset.from_matrix(sub)
                verdicts[key] = posets.is_lattice(poset) and posets.is_distributive(poset)
            except ValueError:
                verdicts[key] = False
        ok = verdicts[key] and len(ids) == math.comb(xs.bit_count() + ys.bit_count(), xs.bit_count())
        if not ok:
            detail = {"witness": [str(family.words[ids[0]])]}
            break
    ok = not detail and len(classes) == 2 ** (family.m + family.n)
    return _result("lattice.same_support_distributive", ok, detail)


def check_yfill_closure(family: LatticeFamily) -> CheckResult:
    """y_fill is a closure operator whose fixed points are the words with
    every y.  The witness is a pair (u, v) where a law fails: v = y_fill(u)
    and u's own laws fail, or u <= v and y_fill(u) is not below y_fill(v)."""
    rel = family.relation
    fill = np.array([family.index(y_fill(u)) for u in family.words], dtype=np.intp)
    full = np.array([u.code[1].bit_count() == family.n for u in family.words], dtype=bool)
    own = np.arange(len(fill))
    broken = (fill[fill] != fill) | ~rel[own, fill] | ((fill == own) != full)

    def bad(rows):
        block = rel[np.ix_(fill[rows], fill)]
        np.greater(rel[rows], block, out=block)  # monotone: u <= v, y_fill(u) not <= y_fill(v)
        hit = broken[rows]
        block[np.flatnonzero(hit), fill[rows][hit]] = True  # idempotent, extensive, closed on full words
        return block

    detail = _first_witness(family.words, bad)
    return _result("lattice.yfill_closure", not detail, detail)


def check_cu_labeling(family: LatticeFamily) -> CheckResult:
    """CU1-CU5, and every label value used.  The witness is the condition and
    the ends of the first violation (CU1 first), else the first unused label."""
    labels, S = edge_labels(family), build_label_poset(family.m, family.n)
    report, used = verify_cu_labeling(family.poset, labels, S.leq), set(labels.values())
    detail = {"polygons": report.polygon_count}
    violations = [(condition, found[0]) for condition, found in report.as_dict()["violations"].items() if found]
    if violations:
        condition, first = violations[0]  # CU4 and CU5 name their two irreducibles
        ends = first.get("irreducibles") or (first["bottom"], first["top"])
        detail["witness"] = [condition, *(str(family.words[i]) for i in ends)]
    elif used != set(S.labels):
        odd = [label for label in S.labels if label not in used] or sorted(used.difference(S.labels), key=str)
        detail["witness"] = ["unused" if odd[0] in S.labels else "not a label", str(odd[0])]
    return _result("labeling.cu_conditions", "witness" not in detail, detail)


def check_labeling_fibers(family: LatticeFamily) -> CheckResult:
    labels = edge_labels(family)
    return _result(
        "labeling.fibers_match_jsd", check_cu_equals_jsd(family.poset, labels)
    )


def check_duality(family: LatticeFamily) -> CheckResult:
    """``dualize`` is an anti-isomorphism onto the (n, m) family: a bijection
    under which v covers u iff dualize(u) covers dualize(v).  Each image is
    a validated (n, m) word, and N distinct images are the whole (n, m)
    family, which has as many words as this one.  Their covers come from the
    cover rules, in this family's ids; a cover that is not an image raises
    ValueError, a failure entry.  The witness is the first pair of words
    with one image, else the first pair (u, v) on which the two cover
    relations disagree."""
    words = family.words
    images = [dualize(w) for w in words]
    preimage: dict = {}
    for i, image in enumerate(images):
        if image in preimage:
            return _result("duality.anti_isomorphism", False, _pair(words, [(preimage[image], i)]))
        preimage[image] = i
    src, dst, *_ = _cover_steps(images)
    pulled = set(zip(dst.tolist(), src.tolist()))
    differ = sorted(pulled ^ set(family.poset.edges()))
    return _result("duality.anti_isomorphism", not differ, _pair(words, differ))


def check_galois(family: LatticeFamily) -> CheckResult:
    P = family.poset
    seed = [family.index(w) for w in extremal_chain_words(family.m, family.n)]
    ordering = order_irreducibles(P, chain=seed)
    generic = galois_graph(P, ordering)
    shortcut = galois_graph_sd(P, ordering)
    if generic.arcs != shortcut.arcs:
        return _result("galois.graphs_coincide", False, {"stage": "sd-shortcut"})
    labels = edge_labels(family)
    vertex_label = {s + 1: labels[(P.down_adj[j][0], j)] for s, j in enumerate(ordering.jseq)}
    explicit = bubble_galois_explicit(family.m, family.n)
    relabeled = generic.relabeled(vertex_label)
    if set(relabeled.vertices) != set(explicit.vertices) or relabeled.arcs != explicit.arcs:
        return _result("galois.graphs_coincide", False, {"stage": "explicit"})
    # Markowsky's canonical map p -> (J_p, M_p) is an isomorphism onto the
    # maximal orthogonal pairs ordered by extent iff it hits each pair once
    # and J_p ⊆ J_q iff p <= q.  J_p and M_p are int64 masks, bit s for
    # vertex s + 1: every family under TABLE_LIMIT has k = mn + m + n <= 41
    bit = np.int64(1) << np.arange(ordering.k, dtype=np.int64)
    jp = bit @ _matrix([P.up[j] for j in ordering.jseq], P.n)
    mp = bit @ _matrix([P.down[m] for m in ordering.mseq], P.n)
    pairs, mask = max_orthogonal_pairs(generic), lambda vertices: sum(1 << (v - 1) for v in vertices)
    index = {(mask(extent), mask(intent)): i for i, (extent, intent) in enumerate(pairs)}
    image = {index.get(pair) for pair in zip(jp.tolist(), mp.tolist())}
    iso = None not in image and len(image) == P.n == len(pairs) and not _first_witness(
        family.words, lambda rows: ((jp[rows, None] & ~jp) == 0) != _matrix(P.up[rows], P.n)
    )
    return _result(
        "galois.graphs_coincide",
        iso,
        {"k": ordering.k, "reconstruction": "isomorphic" if iso else "failed"},
    )


def check_hochschild(family: LatticeFamily) -> CheckResult:
    if family.n != 1:
        return CheckResult("hochschild.iso", "skip", {"reason": "needs n=1"})
    n = family.m + 1
    triwords = len(enumerate_triwords(n))
    ok = verify_hochschild_iso(family) and (n < 2 or triwords == 2 ** (n - 2) * (n + 3))
    return _result("hochschild.iso", ok, {"n": n, "triwords": triwords})


def check_crown(family: LatticeFamily) -> CheckResult:
    """The atoms and their kappas form a crown; the witness is the first atom
    without a kappa, or the first atom and kappa that break the pattern."""
    try:
        witness = posets.find_crown(family.poset)
    except KappaMissing as exc:
        return _result("crown.witness", False, {"witness": [str(family.words[e]) for e in exc.elements]})
    k = family.m + family.n
    # the crown forces dimension >= k; reported, not asserted (dimension
    # itself is never computed here)
    return _result(
        "crown.witness", witness.size == k, {"atoms": witness.size, "dimension_lower_bound": k}
    )


def check_irreducibles_poset(family: LatticeFamily) -> CheckResult:
    """The join-irreducibles form an antichain plus chains, sizes m and m+1:
    Hasse degrees of at most 1 each way, a chain per minimal element."""
    P = family.poset
    m, n = family.m, family.n
    jirr = sorted(posets.join_irreducibles(P))
    if not jirr:
        return _result("lattice.irreducibles_poset", m == 0 and n == 0)
    sub = P.subposet(jirr)
    chains = all(max(len(sub.up_adj[i]), len(sub.down_adj[i])) <= 1 for i in range(sub.n))
    sizes = sorted(sub.depth_above[i] + 1 for i in sub.minimal_elements())
    ok = chains and sizes == sorted([1] * m + [m + 1] * n)
    return _result("lattice.irreducibles_poset", ok, {"component_sizes": sizes})


# -- suites -------------------------------------------------------------------

SUITES = {  # suite -> (check id, name of the check function in this module)
    "order": (
        ("order.axioms", "check_order_axioms"),
        ("order.move_closure", "check_move_closure"),
        ("order.shuffle_suborder", "check_shuffle_suborder"),
        ("order.covers_match_reduction", "check_covers_by_reduction"),
    ),
    "lattice": (
        ("lattice.unique_joins", "check_unique_joins"),
        ("lattice.hasse_regular", "check_hasse_regular"),
        ("lattice.extremal_counts", "check_extremal_counts"),
        ("lattice.semidistributive_trim", "check_semidistributive_trim"),
        ("lattice.same_support_distributive", "check_same_support_distributive"),
        ("lattice.yfill_closure", "check_yfill_closure"),
        ("lattice.irreducibles_poset", "check_irreducibles_poset"),
    ),
    "labeling": (
        ("labeling.cu_conditions", "check_cu_labeling"),
        ("labeling.fibers_match_jsd", "check_labeling_fibers"),
    ),
    "galois": (("galois.graphs_coincide", "check_galois"),),
    "hochschild": (("hochschild.iso", "check_hochschild"),),
    "duality": (("duality.anti_isomorphism", "check_duality"),),
    "crown": (("crown.witness", "check_crown"),),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, family: LatticeFamily) -> list[CheckResult]:
    """Run one suite on a built family.  A check that raises gives a failure
    entry under its id and its traceback on stderr."""
    import traceback

    results = []
    for check_id, check in SUITES[name]:
        try:
            # looked up at call time, so a check wrapped on the module is the one run
            results.append(globals()[check](family))
        except Exception as exc:
            traceback.print_exc()
            results.append(error_result(check_id, exc))
    return results
