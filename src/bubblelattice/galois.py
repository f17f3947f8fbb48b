"""Galois graphs of extremal lattices and their orthogonal-pair lattices.

A maximum-length chain orders the join- and meet-irreducibles so that
prefix joins and suffix meets walk the chain; the Galois graph then records
which ordered join-irreducibles fail to sit below which meet-irreducibles.
The lattice is recovered as the maximal orthogonal pairs of that digraph,
which is a concept-lattice computation on the complemented relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from .errors import NotExtremal
from .labeling import BubbleLabel, bubble_labels
from .posets import (
    FinitePoset,
    is_extremal,
    join_irreducibles,
    maximum_length_chain,
    meet_irreducibles,
)

Vertex = Hashable


@dataclass(frozen=True)
class IrreducibleOrdering:
    """A maximum chain plus the irreducible orderings it forces."""

    chain: tuple[int, ...]
    jseq: tuple[int, ...]
    mseq: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.jseq)


def order_irreducibles(
    P: FinitePoset, chain: Optional[Sequence[int]] = None
) -> IrreducibleOrdering:
    """Order the irreducibles along a maximum-length chain.

    Step s of the chain admits exactly one join-irreducible j_s that is
    newly below it, and dually one meet-irreducible m_s; then every step
    must be a cover.  That is all it takes for the defining identities
    chain[s] = chain[0] v j_1 v ... v j_s = chain[k] ^ m_k ^ ... ^ m_(s+1):
    j_s lies below chain[s] and not below chain[s-1], so the cover gives
    chain[s-1] v j_s = chain[s], and dually chain[s] ^ m_s = chain[s-1];
    induction on s, upward for the joins and downward for the meets, does
    the rest.  Conversely the prefix joins increase strictly, as j_s is new
    at step s, and a strictly increasing chain of full length steps by
    covers; so a chain the identities accept passes the cover test.
    """
    if not is_extremal(P):
        raise NotExtremal("only extremal lattices admit this ordering")
    if chain is None:
        chain = maximum_length_chain(P)
    chain = tuple(chain)
    k = P.length()
    if len(chain) != k + 1:
        raise NotExtremal(f"chain has length {len(chain) - 1}, expected {k}")
    jirr = join_irreducibles(P)
    mirr = meet_irreducibles(P)
    jseq: list[int] = []
    mseq: list[int] = []
    for s in range(1, k + 1):
        new_j = [j for j in jirr if P.leq(j, chain[s]) and not P.leq(j, chain[s - 1])]
        if len(new_j) != 1:
            raise NotExtremal(f"chain step {s} pins down {len(new_j)} join-irreducibles")
        jseq.append(new_j[0])
        new_m = [m for m in mirr if P.leq(chain[s - 1], m) and not P.leq(chain[s], m)]
        if len(new_m) != 1:
            raise NotExtremal(f"chain step {s} pins down {len(new_m)} meet-irreducibles")
        mseq.append(new_m[0])
    for s in range(1, k + 1):
        if chain[s] not in P.up_adj[chain[s - 1]]:
            raise NotExtremal(f"chain step {s} is not a cover")
    return IrreducibleOrdering(chain, tuple(jseq), tuple(mseq))


@dataclass(frozen=True)
class GaloisGraph:
    """Directed graph on named vertices; no self-loops."""

    vertices: tuple[Vertex, ...]
    arcs: frozenset[tuple[Vertex, Vertex]]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for a, b in self.arcs:
            if a == b or a not in vs or b not in vs:
                raise ValueError(f"bad arc ({a}, {b})")

    @property
    def k(self) -> int:
        return len(self.vertices)

    def relabeled(self, mapping: Mapping[Vertex, Vertex]) -> "GaloisGraph":
        return GaloisGraph(
            tuple(mapping[v] for v in self.vertices),
            frozenset((mapping[a], mapping[b]) for a, b in self.arcs),
        )

    def to_dot(self, name: str = "galois") -> str:
        idx = {v: i for i, v in enumerate(self.vertices)}
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  v{idx[v]} [label="{v}"];')
        for a, b in sorted(self.arcs, key=lambda e: (idx[e[0]], idx[e[1]])):
            lines.append(f"  v{idx[a]} -> v{idx[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def adjacency_json(self) -> str:
        import json

        idx = {v: i for i, v in enumerate(self.vertices)}
        return json.dumps(
            {
                "vertices": [str(v) for v in self.vertices],
                "arcs": sorted([idx[a], idx[b]] for a, b in self.arcs),
            }
        )


def galois_graph(P: FinitePoset, ordering: IrreducibleOrdering) -> GaloisGraph:
    """Arcs s -> t exactly where j_s fails to sit below m_t (s != t)."""
    k = ordering.k
    arcs = set()
    for s in range(k):
        for t in range(k):
            if s != t and not P.leq(ordering.jseq[s], ordering.mseq[t]):
                arcs.add((s + 1, t + 1))
    return GaloisGraph(tuple(range(1, k + 1)), frozenset(arcs))


def galois_graph_sd(P: FinitePoset, ordering: IrreducibleOrdering) -> GaloisGraph:
    """Same graph computed from join-irreducibles only.

    In a semidistributive extremal lattice, j_s not below m_t is equivalent
    to j_t lying below (lower cover of j_t) joined with j_s.
    """
    k, up = ordering.k, P.up
    arcs = set()
    for t in range(k):
        jt = ordering.jseq[t]
        jt_star = P.down_adj[jt][0]
        for s in range(k):
            # j_t <= j_t* v j_s iff every common upper bound of j_t* and j_s is above j_t
            if s != t and not (up[jt_star] & up[ordering.jseq[s]]) & ~up[jt]:
                arcs.add((s + 1, t + 1))
    return GaloisGraph(tuple(range(1, k + 1)), frozenset(arcs))


def bubble_galois_explicit(m: int, n: int) -> GaloisGraph:
    """The Galois graph of a bubble lattice, written on label vertices.

    Arcs run from each x_s to every pair (x_s, y_t), from each pair
    (x_s, y_t) to y_t, and between pairs from (x_s, y_t) to (x_s', y_t')
    whenever s <= s' and t >= t' (excluding equality), matching the
    orientation of the chain-ordered construction: x-vertices have no
    incoming arcs and y-vertices no outgoing ones.
    """
    arcs = set()
    for s in range(1, m + 1):
        for t in range(1, n + 1):
            arcs.add((BubbleLabel.xlab(s), BubbleLabel.pairlab(s, t)))
            arcs.add((BubbleLabel.pairlab(s, t), BubbleLabel.ylab(t)))
    for s in range(1, m + 1):
        for t in range(1, n + 1):
            for s2 in range(s, m + 1):
                for t2 in range(1, t + 1):
                    if (s, t) != (s2, t2):
                        arcs.add(
                            (BubbleLabel.pairlab(s, t), BubbleLabel.pairlab(s2, t2))
                        )
    return GaloisGraph(bubble_labels(m, n), frozenset(arcs))


def max_orthogonal_pairs(G: GaloisGraph) -> tuple[tuple[tuple[Vertex, ...], tuple[Vertex, ...]], ...]:
    """Maximal pairs (A, B) with no arc from A to B and A, B disjoint, by
    extent size and then names.

    These are the formal concepts of the complement relation (minus the
    diagonal): extents are the intersections of its attribute columns, so a
    fixed-point sweep over column intersections enumerates everything.
    Ordered by extent inclusion they form the lattice of the graph.
    """
    verts = G.vertices
    k = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    full = (1 << k) - 1
    compat = [full & ~(1 << i) for i in range(k)]
    for a, b in G.arcs:
        compat[idx[b]] &= ~(1 << idx[a])

    extents = {full}
    frontier = [full]
    while frontier:
        new = []
        for ext in frontier:
            for col in compat:
                cut = ext & col
                if cut not in extents:
                    extents.add(cut)
                    new.append(cut)
        frontier = new

    def names(mask: int) -> tuple[Vertex, ...]:
        return tuple(verts[i] for i in range(k) if (mask >> i) & 1)

    def intent(ext: int) -> int:
        return sum(1 << v for v in range(k) if ext & ~compat[v] == 0 and not (ext >> v) & 1)

    ordered = sorted(extents, key=lambda e: (bin(e).count("1"), names(e)))
    return tuple((names(e), names(intent(e))) for e in ordered)
