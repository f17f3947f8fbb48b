"""Shared fixtures: cached lattice families and independent oracles.

The oracles here deliberately avoid the library's own enumeration and
cover code paths: words come from subset-plus-interleaving generation and
order facts from one-step move closures.  The ``oracle_*`` order, join and
meet functions evaluate the paper's formulas one letter at a time, through
the public ``restriction``, ``y_fill``, ``word_from_profile`` and
``dualize``; the library's bitmask kernel is tested against them, and
``oracle_word_code`` reads a word's code and its views letter by letter.
``oracle_lattice_tables`` and ``oracle_polygonal_intervals`` are the
pair-by-pair table scan and the all-comparable-pairs polygon scan (with its
``_comparability_components``) that the cover recursion and the polygon
search by cover walks in ``posets`` replaced; ``oracle_certified_tables``
is the cover recursion one element at a time in reverse topological order,
over every column, which the walk over the irreducible columns and the fill
in ``posets`` replaced, with the certificate on the meet walk too, which
``posets._tables`` dropped as redundant once the join table is certified.
``oracle_join_witness`` names the pair that a failed join certificate
names, by testing each pair for a least upper bound.
``semidistributive_half`` is the triple scan over the join and meet tables
that the kappa route to semidistributivity replaced, ``oracle_kappa`` the
scan of every element of the set for its one maximal element, which kappa
by topological position in ``posets`` replaced, ``oracle_trim_witness`` the
trim check's witness by that scan and the full-matrix left-modularity test,
and
``oracle_left_modular_test`` the full-matrix left-modularity test, over
every pair y < z, that the test on covers replaced.  ``is_isomorphic`` is
a backtracking isomorphism search for small posets, which the Galois check
replaced by Markowsky's canonical map, and ``extent_poset`` the maximal
orthogonal pairs ordered by the pairwise subset test of their extents,
which the check replaced by comparing J_p with the order of the lattice.
``oracle_reduction`` is the
transitive reduction by a walk over every bit of every up-set, which cover
jumping in ``FinitePoset.from_matrix`` replaced, and ``closure_matrix`` the
move closure by iterated squaring, which the one topological pass replaced.
``upper_covers`` and ``lambda_bubble`` build the covers of a word and label
a cover letter by letter, the oracle for the covers and labels that
``bubble._cover_steps`` reads off the code; ``oracle_lambda_jsd`` is the
meet of the candidates by a reduce over the meet table, which the least
join-irreducible candidate in ``posets.lambda_jsd`` replaced.  ``oracle_verify_cu_labeling``
is the polygon-by-polygon CU loop on label objects that CU on codes
replaced, and ``oracle_order_irreducibles`` and ``oracle_galois_graph_sd``
test the ordering identities and the Galois arcs on the join and meet
tables, where ``galois`` now tests covers and reads the up-sets alone.
``oracle_same_support_detail`` is the same-support check class by class,
by the definitions of an order, a lattice and distributivity on each
class's own matrix, with no verdict shared between classes.
``oracle_hochschild_witness`` is the Hochschild check's witness by the
definition of a triword and the componentwise order, over the covers of
``upper_covers``.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import combinations, product
from typing import Iterable, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from bubblelattice.bubble import CoverStep, LatticeFamily, build_bubble_lattice, build_shuffle_poset
from bubblelattice.errors import NotALattice, NotExtremal, NotJoinSemidistributive
from bubblelattice.galois import GaloisGraph, IrreducibleOrdering
from bubblelattice.labeling import BubbleLabel, CUReport, label_from_step
from bubblelattice.posets import (
    TABLE_DTYPE,
    FinitePoset,
    Polygon,
    _bits,
    is_extremal,
    join_irreducibles,
    lattice_tables,
    maximum_length_chain,
    meet_irreducibles,
    polygonal_intervals,
)
from bubblelattice.words import (
    Letter,
    ShuffleWord,
    SupportProfile,
    dualize,
    restriction,
    word_from_profile,
    y_fill,
)

_BUBBLE_CACHE: dict[tuple[int, int], LatticeFamily] = {}
_SHUFFLE_CACHE: dict[tuple[int, int], LatticeFamily] = {}


@pytest.fixture(scope="session")
def bubble():
    def get(m: int, n: int) -> LatticeFamily:
        if (m, n) not in _BUBBLE_CACHE:
            _BUBBLE_CACHE[(m, n)] = build_bubble_lattice(m, n)
        return _BUBBLE_CACHE[(m, n)]

    return get


@pytest.fixture(scope="session")
def shuffle():
    def get(m: int, n: int) -> LatticeFamily:
        if (m, n) not in _SHUFFLE_CACHE:
            _SHUFFLE_CACHE[(m, n)] = build_shuffle_poset(m, n)
        return _SHUFFLE_CACHE[(m, n)]

    return get


def replace_everywhere(monkeypatch, original, replacement) -> None:
    """Monkeypatch ``original`` in every bubblelattice namespace holding it,
    the classes that each module holds included."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bubblelattice":
            owners = [module] + [value for value in vars(module).values() if isinstance(value, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, replacement)


def splits(total_max: int):
    """All (m, n) with m + n <= total_max."""
    return [
        (m, t - m)
        for t in range(total_max + 1)
        for m in range(t + 1)
    ]


def oracle_words(m: int, n: int) -> set[tuple[Letter, ...]]:
    """Every shuffle word, built by picking supports and interleaving them."""
    out: set[tuple[Letter, ...]] = set()
    for a in range(m + 1):
        for xsupp in combinations(range(1, m + 1), a):
            for b in range(n + 1):
                for ysupp in combinations(range(1, n + 1), b):
                    xs = [Letter.x(i) for i in xsupp]
                    ys = [Letter.y(j) for j in ysupp]
                    for positions in combinations(range(a + b), a):
                        seq: list[Letter] = []
                        xi = yi = 0
                        for k in range(a + b):
                            if k in positions:
                                seq.append(xs[xi])
                                xi += 1
                            else:
                                seq.append(ys[yi])
                                yi += 1
                        out.add(tuple(seq))
    return out


def oracle_word_code(u: ShuffleWord):
    """``(xsupport, ysupport, inversions, code)`` read off u letter by letter:
    the supports in order, the pairs (s, t) with y_t before x_s, and the
    masks of both supports and of the letters after each y_t and each x_s."""
    xsupport = tuple(l.index for l in u.letters if l.is_x)
    ysupport = tuple(l.index for l in u.letters if not l.is_x)
    inversions = frozenset(
        (b.index, a.index)
        for k, a in enumerate(u.letters)
        for b in u.letters[k + 1:]
        if not a.is_x and b.is_x
    )
    rows = [0] * (u.n + 1)
    cols = [0] * (u.m + 1)
    for k, a in enumerate(u.letters):
        for b in u.letters[k + 1:]:
            if a.is_x != b.is_x:
                after = cols if a.is_x else rows
                after[a.index] |= 1 << b.index
    code = (
        sum(1 << s for s in xsupport),
        sum(1 << t for t in ysupport),
        tuple(rows),
        tuple(cols),
    )
    return xsupport, ysupport, inversions, code


def oracle_leq_shuffle(u: ShuffleWord, v: ShuffleWord) -> bool:
    """Shuffle order: v's x's within u's, u's y's within v's, and the
    common letters in the same order in both words."""
    if not set(v.xsupport) <= set(u.xsupport):
        return False
    if not set(u.ysupport) <= set(v.ysupport):
        return False
    return restriction(u, v).letters == restriction(v, u).letters


def oracle_leq_bubble(u: ShuffleWord, v: ShuffleWord) -> bool:
    """Bubble order: the same supports test, with the inversions of u on
    the common letters contained in those of v."""
    if not set(v.xsupport) <= set(u.xsupport):
        return False
    if not set(u.ysupport) <= set(v.ysupport):
        return False
    return restriction(u, v).inversions <= restriction(v, u).inversions


def oracle_join(u: ShuffleWord, v: ShuffleWord) -> ShuffleWord:
    """The y-filling formula: common x's, all y's, and the union of the
    inversions the two y-filled words induce on that support."""
    if (u.m, u.n) != (v.m, v.n):
        raise ValueError("join requires words from the same family")
    shared = set(v.xsupport)
    xsupp = tuple(s for s in u.xsupport if s in shared)
    ysupp = tuple(sorted(set(u.ysupport) | set(v.ysupport)))
    support_word = ShuffleWord(
        tuple(Letter.x(s) for s in xsupp) + tuple(Letter.y(t) for t in ysupp),
        u.m,
        u.n,
    )
    inv_u = restriction(y_fill(u), support_word).inversions
    inv_v = restriction(y_fill(v), support_word).inversions
    return word_from_profile(SupportProfile(xsupp, ysupp, inv_u | inv_v, u.m, u.n))


def oracle_meet(u: ShuffleWord, v: ShuffleWord) -> ShuffleWord:
    """The dual of a join: swap the alphabets, join, swap back."""
    return dualize(oracle_join(dualize(u), dualize(v)))


def upper_covers(u: ShuffleWord) -> list[tuple[ShuffleWord, CoverStep]]:
    """All covers of u in the bubble order, built letter by letter.

    Each x-letter present yields one cover (delete it when followed by
    another x or final, else transpose it with the y right after it), and
    each y-letter absent yields one cover (insert it right before the next
    larger present y, else at the end).
    """
    out: list[tuple[ShuffleWord, CoverStep]] = []
    seq = u.letters
    for pos, letter in enumerate(seq):
        if not letter.is_x:
            continue
        if pos + 1 == len(seq) or seq[pos + 1].is_x:
            covered = seq[:pos] + seq[pos + 1:]
            out.append((ShuffleWord(covered, u.m, u.n), CoverStep("delete_x", s=letter.index)))
        else:
            nxt = seq[pos + 1]
            covered = seq[:pos] + (nxt, letter) + seq[pos + 2:]
            step = CoverStep("transposition", s=letter.index, t=nxt.index)
            out.append((ShuffleWord(covered, u.m, u.n), step))
    for j in range(1, u.n + 1):
        if j not in u.ysupport:
            at = next((p for p, l in enumerate(seq) if not l.is_x and l.index > j), len(seq))
            covered = seq[:at] + (Letter.y(j),) + seq[at:]
            out.append((ShuffleWord(covered, u.m, u.n), CoverStep("insert_y", t=j)))
    return out


def lambda_bubble(u: ShuffleWord, v: ShuffleWord) -> BubbleLabel:
    """Label of the cover from u to v; raises ValueError otherwise."""
    for cover, step in upper_covers(u):
        if cover == v:
            return label_from_step(step)
    raise ValueError(f"{u} is not covered by {v}")


def oracle_lambda_jsd(P: FinitePoset, edge: tuple[int, int]) -> int:
    """The meet of every x with p v x = q, by a reduce over the meet table;
    NotJoinSemidistributive unless it is itself such an x, and join-irreducible."""
    p, q = edge
    join, meet = lattice_tables(P)
    candidates = np.nonzero(join[p] == q)[0]
    label = reduce(lambda a, b: int(meet[a, b]), candidates[1:], int(candidates[0]))
    if join[p, label] != q:
        raise NotJoinSemidistributive(f"edge ({p}, {q}) has no least candidate: their meet {label} is none")
    if len(P.down_adj[label]) != 1:
        raise NotJoinSemidistributive(f"edge ({p}, {q}) has non-irreducible label {label}")
    return label


def mask_matrix(masks: list[int]) -> np.ndarray:
    """Bitmask i as bool row i of an n x n matrix, n the number of masks."""
    n = len(masks)
    return np.array([[bool(mask >> j & 1) for j in range(n)] for mask in masks], dtype=bool).reshape(n, n)


def oracle_reduction(up_masks: list[int]) -> list[tuple[int, int]]:
    """The covers of reflexive reachability bitmasks, for every strict pair
    i < j by a test that nothing lies between them."""
    n = len(up_masks)
    down = [0] * n
    for i in range(n):
        if not (up_masks[i] >> i) & 1:
            raise ValueError("relation must be reflexive")
        for j in _bits(up_masks[i]):
            down[j] |= 1 << i
    covers = []
    for i in range(n):
        strict_up = up_masks[i] & ~(1 << i)
        for j in _bits(strict_up):
            if (up_masks[j] >> i) & 1:
                raise ValueError("relation is not antisymmetric")
            if not strict_up & down[j] & ~(1 << j):
                covers.append((i, j))
    return covers


def oracle_lattice_tables(P: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """Join and meet tables by testing every pair's common up- and down-set."""
    n = P.n
    pos = {e: k for k, e in enumerate(P.topo)}
    rpos = {e: n - 1 - pos[e] for e in range(n)}
    # masks over topo positions: the least set bit of an up-set intersection
    # is a minimal element of it, because topo position is a linear extension
    uptopo = [0] * n
    downtopo = [0] * n
    for i in range(n):
        for j in _bits(P.up[i]):
            uptopo[i] |= 1 << pos[j]
        for j in _bits(P.down[i]):
            downtopo[i] |= 1 << rpos[j]
    join = np.zeros((n, n), dtype=np.int32)
    meet = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            common = uptopo[i] & uptopo[j]
            if not common:
                raise NotALattice(f"elements {i} and {j} have no upper bound")
            w = P.topo[(common & -common).bit_length() - 1]
            if common & ~uptopo[w]:
                raise NotALattice(f"elements {i} and {j} have two minimal upper bounds")
            join[i, j] = join[j, i] = w
            common = downtopo[i] & downtopo[j]
            if not common:
                raise NotALattice(f"elements {i} and {j} have no lower bound")
            w = P.topo[n - 1 - ((common & -common).bit_length() - 1)]
            if common & ~downtopo[w]:
                raise NotALattice(f"elements {i} and {j} have two maximal lower bounds")
            meet[i, j] = meet[j, i] = w
    return join, meet


def oracle_certified_tables(P: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """Join and meet tables by the cover recursion with the certificate on
    both walks: the meet walk that ``posets._tables`` now runs uncertified."""
    join = _certified_bound_table(P.topo, P.up_adj, P.down, "upper", "minimal")
    meet = _certified_bound_table(P.topo[::-1], P.down_adj, P.up, "lower", "maximal")
    return join, meet


def _certified_bound_table(topo, covers, down, bound: str, least: str) -> np.ndarray:
    """One table of ``oracle_certified_tables``: each row is the least
    candidate among the cover rows, in topological positions, certified
    below every other candidate (c v w = c v j for each cover c)."""
    n = len(topo)
    order = np.array(topo, dtype=TABLE_DTYPE)
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    for k in range(n - 1, -1, -1):
        i = topo[k]
        below = np.array([bool(down[i] >> j & 1) for j in range(n)], dtype=bool)
        if not covers[i]:
            if not below.all():
                raise NotALattice(f"elements {i} and {int(np.argmin(below))} have no {bound} bound")
            table[i] = k
            continue
        rows = table.take(covers[i], axis=0)
        best = rows.min(axis=0)
        failed = ~((rows.take(order.take(best), axis=1) == rows).all(axis=0) | below)
        if failed.any():
            raise NotALattice(f"elements {i} and {int(np.argmax(failed))} have two {least} {bound} bounds")
        best[below] = k
        table[i] = best
    return order.take(table)


def oracle_join_witness(P: FinitePoset) -> Optional[tuple[int, int]]:
    """The first i, in reverse topological order, that has no least common
    upper bound with some k of at most one lower cover, and the least such
    k; None if there is none."""
    columns = [k for k in range(P.n) if len(P.down_adj[k]) <= 1]
    for i in reversed(P.topo):
        for k in columns:
            common = P.up[i] & P.up[k]
            if not any(common & ~P.up[w] == 0 for w in _bits(common)):
                return i, k
    return None


def oracle_left_modular_test(P: FinitePoset):
    """The left-modularity test of one element, (r ∨ p) ∧ q = r ∨ (p ∧ q)
    for every r < q, on the oracle tables and two full N x N gathers per
    element: the test that the one on covers in ``posets`` replaced."""
    join, meet = oracle_lattice_tables(P)
    not_lt = ~mask_matrix(list(P.up)) | np.eye(P.n, dtype=bool)

    def test(p: int) -> bool:
        lhs = meet.take(join[:, p], axis=0)  # (r ∨ p) ∧ q
        rhs = join.take(meet[p], axis=1)     # r ∨ (p ∧ q)
        return bool(((lhs == rhs) | not_lt).all())

    return test


def oracle_kappa(P: FinitePoset, j: int, dual: bool = False) -> Optional[int]:
    """kappa(j), the greatest element above the lower cover of j and not
    above j, as the one maximal element of that set, by a test of every
    element of it; with ``dual``, the dual kappa of a meet-irreducible j."""
    up, (cover,) = (P.down, P.up_adj[j]) if dual else (P.up, P.down_adj[j])
    excluded = up[cover] & ~up[j]
    tops = [p for p in _bits(excluded) if up[p] & excluded == 1 << p]
    return tops[0] if len(tops) == 1 else None


def oracle_trim_witness(family: LatticeFamily, chain, kappa=oracle_kappa) -> Optional[list[str]]:
    """The witness of ``lattice.semidistributive_trim`` with ``kappa`` (the
    dual kappa on ``dual=True``), scanned in its order: the first
    join-irreducible without kappa, the first meet-irreducible without the
    dual kappa, the first step of ``chain`` that is not a cover, the first
    element of ``chain`` that the full-matrix test finds not left modular."""
    P, ws = family.poset, family.words
    for tag, dual, irreducibles in (("no kappa", False, join_irreducibles), ("no dual kappa", True, meet_irreducibles)):
        for j in irreducibles(P):
            if kappa(P, j, dual) is None:
                return [tag, str(ws[j])]
    for a, b in zip(chain, chain[1:]):
        if b not in P.up_adj[a]:
            return ["not a cover", str(ws[a]), str(ws[b])]
    left_modular = oracle_left_modular_test(P)
    return next((["not left modular", str(ws[x])] for x in chain if not left_modular(x)), None)


def semidistributive_half(op: np.ndarray, dual_op: np.ndarray) -> bool:
    """p*q = p*r implies p*(q dual r) = p*q, for every p, q, r.

    With (join, meet) this is join-semidistributivity, with (meet, join)
    meet-semidistributivity.
    """
    for p in range(len(op)):
        row = op[p]
        lhs = row[:, None] == row[None, :]
        rhs = row[dual_op] == row[:, None]
        if np.any(lhs & ~rhs):
            return False
    return True


def _comparability_components(P: FinitePoset, members: Iterable[int]) -> list[list[int]]:
    """The connected components of the comparability graph on ``members``."""
    groups: list[list[int]] = []
    for e in members:
        linked = [
            g
            for g, grp in enumerate(groups)
            if any(P.leq(e, f) or P.leq(f, e) for f in grp)
        ]
        merged = [e]
        for g in sorted(linked, reverse=True):
            merged.extend(groups.pop(g))
        groups.append(merged)
    return groups


def oracle_polygonal_intervals(P: FinitePoset) -> list[Polygon]:
    """Polygons by testing the interval [p, q] of every pair p < q."""
    out: list[Polygon] = []
    for p in range(P.n):
        strict_up = P.up[p] & ~(1 << p)
        for q in _bits(strict_up):
            inner = (P.up[p] & P.down[q]) & ~((1 << p) | (1 << q))
            if not inner:
                continue
            members = list(_bits(inner))
            if sum(1 for a in P.up_adj[p] if (inner >> a) & 1) != 2:
                continue
            groups = _comparability_components(P, members)
            if len(groups) != 2:
                continue
            chains = []
            for grp in groups:
                if not all(P.leq(a, b) or P.leq(b, a) for a in grp for b in grp):
                    chains = None
                    break
                chains.append(sorted(grp, key=lambda e: bin(P.down[e] & inner).count("1")))
            if chains is None:
                continue
            chains.sort(key=lambda c: c[0])
            out.append(
                Polygon(
                    p,
                    q,
                    (
                        (p, *chains[0], q),
                        (p, *chains[1], q),
                    ),
                )
            )
    return out


def chain_edges(poly: Polygon) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The covers along each of the polygon's two chains."""
    return tuple(tuple(zip(chain, chain[1:])) for chain in poly.chains)


def oracle_verify_cu_labeling(P: FinitePoset, labels, leq) -> CUReport:
    """CU1-CU5 polygon by polygon, on the label objects themselves."""
    report = CUReport()
    polygons = polygonal_intervals(P)
    report.polygon_count = len(polygons)

    def strictly_less(a, b) -> bool:
        return a != b and leq(a, b)

    for poly in polygons:
        e1, e2 = chain_edges(poly)
        lab1 = [labels[e] for e in e1]
        lab2 = [labels[e] for e in e2]
        where = {"bottom": poly.bottom, "top": poly.top}
        if lab1[0] != lab2[-1] or lab2[0] != lab1[-1]:
            report.cu1.append({**where, "labels": [str(l) for l in lab1 + lab2]})
        for labs in (lab1, lab2):
            for interior in labs[1:-1]:
                if not (strictly_less(lab1[0], interior) and strictly_less(lab2[0], interior)):
                    report.cu2.append({**where, "interior": str(interior)})
            if len(set(labs)) != len(labs):
                report.cu3.append({**where, "labels": [str(l) for l in labs]})
    seen: dict = {}
    for j in join_irreducibles(P):
        lab = labels[(P.down_adj[j][0], j)]
        if lab in seen:
            report.cu4.append({"irreducibles": [seen[lab], j], "label": str(lab)})
        seen[lab] = j
    seen = {}
    for mm in meet_irreducibles(P):
        lab = labels[(mm, P.up_adj[mm][0])]
        if lab in seen:
            report.cu5.append({"irreducibles": [seen[lab], mm], "label": str(lab)})
        seen[lab] = mm
    return report


def oracle_order_irreducibles(P: FinitePoset, chain=None) -> IrreducibleOrdering:
    """The irreducibles ordered along a maximum-length chain, with the
    prefix-join and suffix-meet identities tested by reduces over the join
    and meet tables."""
    if not is_extremal(P):
        raise NotExtremal("only extremal lattices admit this ordering")
    join, meet = lattice_tables(P)
    chain = tuple(maximum_length_chain(P) if chain is None else chain)
    k = P.length()
    if len(chain) != k + 1:
        raise NotExtremal(f"chain has length {len(chain) - 1}, expected {k}")
    jseq: list[int] = []
    mseq: list[int] = []
    for s in range(1, k + 1):
        new_j = [j for j in join_irreducibles(P) if P.leq(j, chain[s]) and not P.leq(j, chain[s - 1])]
        if len(new_j) != 1:
            raise NotExtremal(f"chain step {s} pins down {len(new_j)} join-irreducibles")
        jseq.append(new_j[0])
        new_m = [m for m in meet_irreducibles(P) if P.leq(chain[s - 1], m) and not P.leq(chain[s], m)]
        if len(new_m) != 1:
            raise NotExtremal(f"chain step {s} pins down {len(new_m)} meet-irreducibles")
        mseq.append(new_m[0])
    for s in range(1, k + 1):
        prefix = reduce(lambda a, b: int(join[a, b]), jseq[:s], chain[0])
        suffix = reduce(lambda a, b: int(meet[a, b]), mseq[s:], chain[-1])
        if prefix != chain[s] or suffix != chain[s]:
            raise NotExtremal(f"ordering identities fail at step {s}")
    return IrreducibleOrdering(chain, tuple(jseq), tuple(mseq))


def oracle_galois_graph_sd(P: FinitePoset, ordering: IrreducibleOrdering) -> GaloisGraph:
    """Arcs s -> t where j_t lies below j_t* v j_s, read from the join table."""
    join, _ = lattice_tables(P)
    k = ordering.k
    arcs = set()
    for t, jt in enumerate(ordering.jseq):
        for s, js in enumerate(ordering.jseq):
            if s != t and P.leq(jt, int(join[P.down_adj[jt][0], js])):
                arcs.add((s + 1, t + 1))
    return GaloisGraph(tuple(range(1, k + 1)), frozenset(arcs))


def extent_poset(pairs) -> FinitePoset:
    """Maximal orthogonal pairs, element i the pair ``pairs[i]``, ordered by
    the pairwise subset test of their extents."""
    extents = [set(extent) for extent, _ in pairs]
    return FinitePoset.from_leq(len(extents), lambda i, j: extents[i] <= extents[j])


def _refine_colors(P: FinitePoset) -> tuple[int, ...]:
    colors = [
        (P.height_below[i], P.depth_above[i], len(P.up_adj[i]), len(P.down_adj[i]))
        for i in range(P.n)
    ]
    ids = {c: k for k, c in enumerate(sorted(set(colors)))}
    cur = [ids[c] for c in colors]
    while True:
        sigs = [
            (
                cur[i],
                tuple(sorted(cur[j] for j in P.up_adj[i])),
                tuple(sorted(cur[j] for j in P.down_adj[i])),
            )
            for i in range(P.n)
        ]
        ids = {s: k for k, s in enumerate(sorted(set(sigs)))}
        nxt = [ids[s] for s in sigs]
        if nxt == cur:
            return tuple(cur)
        cur = nxt


def is_isomorphic(P: FinitePoset, Q: FinitePoset) -> Optional[list[int]]:
    """A cover-preserving bijection from P to Q, or None.

    Color refinement by rank and degree profiles prunes the backtracking;
    adequate at desk scale, not a general graph-isomorphism engine.
    """
    if P.n != Q.n:
        raise ValueError(f"|P| = {P.n} but |Q| = {Q.n}")
    if len(P.edges()) != len(Q.edges()):
        return None
    cp = _refine_colors(P)
    cq = _refine_colors(Q)
    if sorted(cp) != sorted(cq):
        return None
    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(cq):
        by_color.setdefault(c, []).append(j)
    order = sorted(range(P.n), key=lambda i: (len(by_color[cp[i]]), cp[i], i))
    mapping = [-1] * P.n
    inverse = [-1] * Q.n

    def consistent(i: int, j: int) -> bool:
        for a in P.up_adj[i]:
            if mapping[a] != -1 and mapping[a] not in Q.up_adj[j]:
                return False
        for a in P.down_adj[i]:
            if mapping[a] != -1 and mapping[a] not in Q.down_adj[j]:
                return False
        for b in Q.up_adj[j]:
            if inverse[b] != -1 and inverse[b] not in P.up_adj[i]:
                return False
        for b in Q.down_adj[j]:
            if inverse[b] != -1 and inverse[b] not in P.down_adj[i]:
                return False
        return True

    def backtrack(k: int) -> bool:
        if k == P.n:
            return True
        i = order[k]
        for j in by_color[cp[i]]:
            if inverse[j] != -1 or not consistent(i, j):
                continue
            mapping[i] = j
            inverse[j] = i
            if backtrack(k + 1):
                return True
            mapping[i] = -1
            inverse[j] = -1
        return False

    if backtrack(0):
        # a bijection sending covers to covers with equal edge counts is an
        # order isomorphism (the order is the closure of its covers)
        return mapping
    return None


def one_step_moves(family: LatticeFamily) -> set[tuple[int, int]]:
    """All elementary upward moves: any-position indels and transpositions."""
    index = {w: i for i, w in enumerate(family.words)}
    moves: set[tuple[int, int]] = set()
    for i, w in enumerate(family.words):
        seq = w.letters
        for pos, letter in enumerate(seq):
            if letter.is_x:
                moves.add((i, index[ShuffleWord(seq[:pos] + seq[pos + 1:], w.m, w.n)]))
                if pos + 1 < len(seq) and not seq[pos + 1].is_x:
                    swapped = seq[:pos] + (seq[pos + 1], letter) + seq[pos + 2:]
                    moves.add((i, index[ShuffleWord(swapped, w.m, w.n)]))
        present = set(w.ysupport)
        for j in range(1, w.n + 1):
            if j in present:
                continue
            for pos in range(len(seq) + 1):
                candidate = seq[:pos] + (Letter.y(j),) + seq[pos:]
                try:
                    moves.add((i, index[ShuffleWord(candidate, w.m, w.n)]))
                except Exception:
                    continue
    return moves


def closure_matrix(family: LatticeFamily) -> list[int]:
    """Reflexive-transitive closure of the one-step moves, as bitmasks."""
    n = len(family.words)
    reach = [1 << i for i in range(n)]
    for a, b in one_step_moves(family):
        reach[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = reach[i]
            mask = reach[i]
            while mask:
                low = mask & -mask
                acc |= reach[low.bit_length() - 1]
                mask ^= low
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    return reach


def _is_distributive_lattice(leq) -> bool:
    """The definitions on a small bool matrix: an order, every pair with a
    least upper and a greatest lower bound, and x ∧ (q ∨ r) = (x ∧ q) ∨ (x ∧ r)."""
    r = range(len(leq))
    if not all(leq[i][i] for i in r):
        return False
    if any(leq[i][j] and leq[j][i] for i in r for j in r if i != j):
        return False
    if any(leq[i][j] and leq[j][k] and not leq[i][k] for i in r for j in r for k in r):
        return False

    def least(bounds, below):
        found = [b for b in bounds if all(below(b, c) for c in bounds)]
        return found[0] if found else None

    pairs = [(i, j) for i in r for j in r]
    join = {(i, j): least([k for k in r if leq[i][k] and leq[j][k]], lambda b, c: leq[b][c]) for i, j in pairs}
    meet = {(i, j): least([k for k in r if leq[k][i] and leq[k][j]], lambda b, c: leq[c][b]) for i, j in pairs}
    if None in join.values() or None in meet.values():
        return False
    return all(meet[x, join[q, s]] == join[meet[x, q], meet[x, s]] for x in r for q in r for s in r)


def oracle_same_support_detail(family: LatticeFamily) -> dict:
    """The detail of ``lattice.same_support_distributive``: the first word,
    in family order, of the first support class whose size is not
    C(|xs| + |ys|, |xs|) or which the code relation does not make a
    distributive lattice; ``{}`` when there is none."""
    classes: dict = {}
    for i, u in enumerate(family.words):
        classes.setdefault((u.xsupport, u.ysupport), []).append(i)
    rel = family.relation
    for (xsupp, ysupp), ids in classes.items():
        size = len(xsupp) + len(ysupp)
        leq = [[bool(rel[i, j]) for j in ids] for i in ids]
        if len(ids) != math.comb(size, len(xsupp)) or not _is_distributive_lattice(leq):
            return {"witness": [str(family.words[ids[0]])]}
    return {}


def oracle_hochschild_witness(family: LatticeFamily, encode) -> Optional[str]:
    """The first word whose image under ``encode`` repeats an earlier image
    or is no triword (no leading 2, no 1 after a 0) of length m + 1, else the
    first word whose upper covers, by ``upper_covers``, are not sent onto the
    covers of its image in the componentwise order; None if there is none."""
    n, ws = family.m + 1, family.words
    tris = [t for t in product((0, 1, 2), repeat=n) if t[0] != 2 and (0, 1) not in combinations(t, 2)]
    images = [encode(u, n).entries for u in ws]
    for i, image in enumerate(images):
        if image not in tris or image in images[:i]:
            return str(ws[i])

    def below(s, t):
        return all(a <= b for a, b in zip(s, t))

    def covers(t):
        above = [s for s in tris if s != t and below(t, s)]
        return {s for s in above if not any(r != s and below(r, s) for r in above)}

    index = {u: i for i, u in enumerate(ws)}
    return next(
        (str(u) for u, image in zip(ws, images) if {images[index[v]] for v, _ in upper_covers(u)} != covers(image)),
        None,
    )


@st.composite
def random_word(draw, max_m: int = 4, max_n: int = 4):
    """A shuffle word drawn without using the library's enumerator."""
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n))
    return draw(random_word_in(m, n))


@st.composite
def random_word_in(draw, m: int, n: int):
    xsupp = sorted(draw(st.sets(st.integers(1, m)))) if m else []
    ysupp = sorted(draw(st.sets(st.integers(1, n)))) if n else []
    xs = [Letter.x(i) for i in xsupp]
    ys = [Letter.y(j) for j in ysupp]
    pattern = draw(st.permutations([0] * len(xs) + [1] * len(ys)))
    seq = []
    xi = yi = 0
    for bit in pattern:
        if bit == 0:
            seq.append(xs[xi])
            xi += 1
        else:
            seq.append(ys[yi])
            yi += 1
    return ShuffleWord(tuple(seq), m, n)


@st.composite
def random_word_pair(draw, max_m: int = 4, max_n: int = 4):
    """Two words over the same alphabets."""
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n))
    return draw(random_word_in(m, n)), draw(random_word_in(m, n))


@st.composite
def random_triple(draw, max_m: int = 3, max_n: int = 3):
    """Three words over the same alphabets."""
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n))
    return tuple(draw(random_word_in(m, n)) for _ in range(3))


@st.composite
def closure_lattices(draw):
    """An intersection-closed family of random subsets of a ground set of
    at most 5 points, with the full set, ordered by inclusion: a lattice,
    often not semidistributive."""
    full = (1 << draw(st.integers(1, 5))) - 1
    family = {full}
    for s in draw(st.lists(st.integers(0, full), max_size=10)):
        family |= {s & t for t in family}
    sets = sorted(family)
    return FinitePoset.from_matrix(np.array([[s & t == s for t in sets] for s in sets]))
