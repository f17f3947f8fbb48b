"""Edge labels on the bubble order, the label poset, and the CU checker.

Every cover gets a label: the deleted x, the inserted y, or the inversion
pair a transposition creates.  The label poset puts each letter below the
pairs containing it and orders the pairs so that larger letter indices sit
lower.  ``verify_cu_labeling`` is generic: it takes any lattice, any edge
labeling, and any order on label values, and reports violations of the five
doubling-certificate conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Mapping

import numpy as np

from .bubble import STEP_KINDS, CoverStep, LatticeFamily
from .posets import (
    Edge,
    FinitePoset,
    join_irreducibles,
    lambda_jsd,
    meet_irreducibles,
    _polygon_arrays,
)


_KIND_RANK = {"x": 0, "y": 1, "xy": 2}


@dataclass(frozen=True)
class BubbleLabel:
    """A label value: x_s, y_t, or the pair (x_s, y_t).

    Sorting (x's, then y's, then pairs, by indices) is presentation-only;
    the label poset order is separate.
    """

    kind: str
    s: int = 0
    t: int = 0

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_RANK[self.kind], self.s, self.t)

    def __lt__(self, other: "BubbleLabel") -> bool:
        return self.sort_key < other.sort_key

    @staticmethod
    def xlab(s: int) -> "BubbleLabel":
        return BubbleLabel("x", s=s)

    @staticmethod
    def ylab(t: int) -> "BubbleLabel":
        return BubbleLabel("y", t=t)

    @staticmethod
    def pairlab(s: int, t: int) -> "BubbleLabel":
        return BubbleLabel("xy", s=s, t=t)

    def __str__(self) -> str:
        if self.kind == "x":
            return f"x{self.s}"
        if self.kind == "y":
            return f"y{self.t}"
        return f"(x{self.s},y{self.t})"


def label_from_step(step: CoverStep) -> BubbleLabel:
    if step.kind == "delete_x":
        return BubbleLabel.xlab(step.s)
    if step.kind == "insert_y":
        return BubbleLabel.ylab(step.t)
    return BubbleLabel.pairlab(step.s, step.t)


def edge_labels(family: LatticeFamily) -> dict[Edge, BubbleLabel]:
    """Labels for every Hasse edge of a bubble lattice family, read off the
    cover steps of its build with one ``label_from_step`` per distinct
    label.  The dict is built once per family and shared by every caller."""
    if "_edge_labels" not in family.__dict__:
        src, dst, *step = family.steps
        distinct, inverse = np.unique(np.stack(step, axis=1), axis=0, return_inverse=True)
        labels = [label_from_step(CoverStep(STEP_KINDS[k], s, t)) for k, s, t in distinct.tolist()]
        edges = zip(src.tolist(), dst.tolist())
        family.__dict__["_edge_labels"] = dict(zip(edges, map(labels.__getitem__, inverse.ravel().tolist())))
    return family.__dict__["_edge_labels"]


@dataclass(frozen=True)
class LabelPoset:
    """The order on labels: letters below pairs, larger indices lower."""

    m: int
    n: int
    labels: tuple[BubbleLabel, ...]
    poset: FinitePoset

    @cached_property
    def _index(self) -> dict[BubbleLabel, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def leq(self, a: BubbleLabel, b: BubbleLabel) -> bool:
        return self.poset.leq(self._index[a], self._index[b])


def label_leq(a: BubbleLabel, b: BubbleLabel) -> bool:
    """Closed form of the label-poset order.

    x_s sits below (x_s', y_t') iff s >= s'; y_t below (x_s', y_t') iff
    t >= t'; pairs compare componentwise with both indices reversed.  The
    second pair relation reads "strictly larger second index is lower";
    see the cover-structure test against the 4x3 instance.
    """
    if a == b:
        return True
    if b.kind != "xy":
        return False
    if a.kind == "x":
        return a.s >= b.s
    if a.kind == "y":
        return a.t >= b.t
    return a.s >= b.s and a.t >= b.t


def bubble_labels(m: int, n: int) -> tuple[BubbleLabel, ...]:
    """Every label value: the x's, the y's, then the pairs, s outer and t inner."""
    return (
        tuple(BubbleLabel.xlab(s) for s in range(1, m + 1))
        + tuple(BubbleLabel.ylab(t) for t in range(1, n + 1))
        + tuple(BubbleLabel.pairlab(s, t) for s in range(1, m + 1) for t in range(1, n + 1))
    )


def build_label_poset(m: int, n: int) -> LabelPoset:
    labels = bubble_labels(m, n)
    poset = FinitePoset.from_leq(
        len(labels), lambda i, j: label_leq(labels[i], labels[j])
    )
    return LabelPoset(m, n, labels, poset)


@dataclass
class CUReport:
    """Violations of the five doubling-certificate conditions, per polygon."""

    cu1: list[dict] = field(default_factory=list)
    cu2: list[dict] = field(default_factory=list)
    cu3: list[dict] = field(default_factory=list)
    cu4: list[dict] = field(default_factory=list)
    cu5: list[dict] = field(default_factory=list)
    polygon_count: int = 0

    @property
    def ok(self) -> bool:
        return not (self.cu1 or self.cu2 or self.cu3 or self.cu4 or self.cu5)

    def as_dict(self) -> dict:
        return {
            "polygons": self.polygon_count,
            "violations": {
                "CU1": self.cu1,
                "CU2": self.cu2,
                "CU3": self.cu3,
                "CU4": self.cu4,
                "CU5": self.cu5,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def verify_cu_labeling(
    P: FinitePoset,
    labels: Mapping[Edge, object],
    leq: Callable[[object, object], bool],
) -> CUReport:
    """Check CU1-CU5 for an edge labeling against an order on label values.

    CU1: in every polygon the two bottom labels reappear swapped at the top.
    CU2: interior chain labels lie strictly above both bottom labels.
    CU3: no chain of a polygon repeats a label.
    CU4/CU5: the edges into join-irreducibles (resp. out of
    meet-irreducibles) carry pairwise distinct labels.

    CU1-CU3 run on codes: chain edges are found by one search on the keys
    a * N + b of ``P.edges()``, each edge used has its label coded once, and
    ``leq`` is called once per (bottom label, interior label) pair it needs.
    """
    bottoms, tops, flat, offsets = _polygon_arrays(P)
    report = CUReport(polygon_count=len(bottoms))
    edges, flat = P.edges(), flat.astype(np.intp)
    first = offsets - np.arange(len(offsets))  # chain c holds the chain edges first[c] .. first[c + 1] - 1
    chain = np.repeat(np.arange(len(offsets) - 1), np.diff(first))
    keys = np.delete(flat[:-1] * P.n + flat[1:], offsets[1:-1] - 1)
    used, where = np.unique(np.searchsorted([a * P.n + b for a, b in edges], keys), return_inverse=True)
    codes: dict[object, int] = {}
    lab = np.array([codes.setdefault(labels[edges[e]], len(codes)) for e in used.tolist()], dtype=np.intp)
    lab, names, width = lab[where.ravel()], [str(value) for value in codes], max(len(codes), 1)
    values = list(codes)
    below = cache(lambda a, b: bool(leq(values[a], values[b])))  # one call per pair of codes

    def strictly_less(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        out = lower != upper
        out[out] = [below(a, b) for a, b in zip(lower[out].tolist(), upper[out].tolist())]
        return out

    start, end = lab[first[:-1]], lab[first[1:] - 1]
    cu1 = (start[0::2] != end[1::2]) | (start[1::2] != end[0::2])
    inner = np.delete(np.arange(len(lab)), np.r_[first[:-1], first[1:] - 1])  # no chain's first or last edge
    poly, interior = chain[inner] // 2, lab[inner]
    above = strictly_less(start[2 * poly], interior)
    above[above] = strictly_less(start[2 * poly + 1][above], interior[above])
    ordered = np.sort(chain * width + lab)
    cu3 = np.unique(ordered[1:][ordered[1:] == ordered[:-1]] // width)

    def at(k: int, **detail) -> dict:
        return {"bottom": int(bottoms[k]), "top": int(tops[k]), **detail}

    def chain_names(lo: int, hi: int) -> list[str]:
        return [names[code] for code in lab[lo:hi].tolist()]

    report.cu1 = [at(k, labels=chain_names(first[2 * k], first[2 * k + 2])) for k in np.flatnonzero(cu1).tolist()]
    report.cu2 = [at(k, interior=names[c]) for k, c in zip(poly[~above].tolist(), interior[~above].tolist())]
    report.cu3 = [at(c // 2, labels=chain_names(first[c], first[c + 1])) for c in cu3.tolist()]
    seen: dict[object, int] = {}
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


def check_cu_equals_jsd(P: FinitePoset, labels: Mapping[Edge, object]) -> bool:
    """Do the labeling's edge fibers coincide with those of the join-meet label?
    They do iff the pairs (label, λ_jsd) of the edges match the label values
    and the λ_jsd values one to one."""
    pairs = {(labels[edge], lambda_jsd(P, edge)) for edge in P.edges()}
    return len(pairs) == len({label for label, _ in pairs}) == len({jsd for _, jsd in pairs})
