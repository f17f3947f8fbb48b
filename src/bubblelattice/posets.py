"""Finite posets and lattice analytics on top of bitset reachability.

Elements are 0..n-1.  Reachability is cached as one big-int bitmask per
element, so order tests are single AND/shift operations.  The up-sets are
the one stored form of the order: a bool view is unpacked where rows are
compared, never kept.  Distributivity runs over numpy join/meet tables,
left modularity tests the covers, the jsd label reads the down-sets and
semidistributivity is read off kappa.
The tables come from one recursion over covers, which builds the rows of
one depth level together, a group of rows with the same number of covers
at a time.  Only the join walk carries a certificate, which makes it, with
a test for a least element, the one proof that P is a lattice, since a
finite join-semilattice with a least element is one: that is the lattice
gate, and a test that needs only the gate builds no meet table.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import KappaMissing, NotALattice, NotJoinSemidistributive

Edge = tuple[int, int]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# entries per row block wherever an N x N relation is built, tested or
# packed by rows, so that no temporary is a second N x N array
_ROW_BLOCK = 1 << 20


def _reach(n: int, succ: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A topological order of the graph ``succ`` on 0..n-1, smallest id
    first among the elements ready, and the reflexive reachability bitmask
    of each element, the OR over its successors in one reverse pass.
    Raises ValueError on a cycle."""
    indeg = [0] * n
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        i = heapq.heappop(heap)
        topo.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(topo) != n:
        raise ValueError("relation contains a cycle")
    reach = [0] * n
    for i in reversed(topo):
        mask = 1 << i
        for j in succ[i]:
            mask |= reach[j]
        reach[i] = mask
    return topo, reach


class FinitePoset:
    """A finite poset given by its cover (Hasse) relation.

    ``up[i]`` / ``down[i]`` are reflexive reachability bitmasks; the cover
    lists are kept sorted so exports and iteration are deterministic.
    Construction verifies acyclicity and that the supplied edges really are
    the transitive reduction of their closure.
    """

    def __init__(self, n: int, cover_pairs: Iterable[Edge]):
        if n < 0:
            raise ValueError("element count must be nonnegative")
        self.n = n
        up_adj: list[set[int]] = [set() for _ in range(n)]
        down_adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in cover_pairs:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad cover pair ({a}, {b})")
            up_adj[a].add(b)
            down_adj[b].add(a)
        self.up_adj = tuple(tuple(sorted(s)) for s in up_adj)
        self.down_adj = tuple(tuple(sorted(s)) for s in down_adj)
        topo, up = _reach(n, self.up_adj)
        _, down = _reach(n, self.down_adj)
        self.topo = tuple(topo)
        self.up = tuple(up)
        self.down = tuple(down)

        for a in range(n):
            for b in self.up_adj[a]:
                between = (up[a] & down[b]) & ~((1 << a) | (1 << b))
                if between:
                    raise ValueError(f"edge ({a}, {b}) is not a cover")

        # longest-path ranks from below and above
        hfb = [0] * n
        for i in topo:
            if self.down_adj[i]:
                hfb[i] = 1 + max(hfb[j] for j in self.down_adj[i])
        dtt = [0] * n
        for i in reversed(topo):
            if self.up_adj[i]:
                dtt[i] = 1 + max(dtt[j] for j in self.up_adj[i])
        self.height_below = tuple(hfb)
        self.depth_above = tuple(dtt)

    # -- basic queries ----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def length(self) -> int:
        """Length of a longest chain (number of covers along it)."""
        return max(self.height_below, default=0)

    def minimal_elements(self) -> list[int]:
        return [i for i in range(self.n) if not self.down_adj[i]]

    def maximal_elements(self) -> list[int]:
        return [i for i in range(self.n) if not self.up_adj[i]]

    def bottom(self) -> int:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise NotALattice(f"no unique bottom: minimal elements {mins}")
        return mins[0]

    def top(self) -> int:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise NotALattice(f"no unique top: maximal elements {maxs}")
        return maxs[0]

    def edges(self) -> list[Edge]:
        return [(a, b) for a in range(self.n) for b in self.up_adj[a]]

    def degree(self, i: int) -> int:
        return len(self.up_adj[i]) + len(self.down_adj[i])

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.n, [(b, a) for (a, b) in self.edges()])

    def subposet(self, elements: Sequence[int]) -> "FinitePoset":
        """Induced subposet; element k of the result is elements[k]."""
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate elements")
        return FinitePoset.from_matrix(_matrix([self.up[e] for e in elements], self.n)[:, elements])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, leq: np.ndarray) -> "FinitePoset":
        """The poset whose order is the N x N bool matrix ``leq``, by
        transitive reduction; ValueError unless ``leq`` is reflexive,
        antisymmetric and transitive.

        Sorted by up-set size, largest first, the elements are in a linear
        extension, so the least position above p that no upper cover found
        so far lies below is p's next upper cover: cover jumping, one
        lowest-bit and one AND-NOT per cover on the up-sets, held as
        bitmasks over positions and permuted and packed in row blocks.  The
        relation is transitive iff the closure of these covers equals it.
        """
        leq = np.asarray(leq, dtype=bool)
        n = len(leq)
        if leq.shape != (n, n):
            raise ValueError(f"relation matrix of shape {leq.shape} is not square")
        if not leq.diagonal().all():
            raise ValueError("relation must be reflexive")
        step = max(1, _ROW_BLOCK // max(n, 1))
        for lo in range(0, n, step):
            both = leq[lo : lo + step] & leq[:, lo : lo + step].T
            np.fill_diagonal(both[:, lo:], False)
            if both.any():
                raise ValueError("relation is not antisymmetric")
        order = np.argsort(-leq.sum(axis=1), kind="stable")
        ups = [up for lo in range(0, n, step) for up in _masks(leq[np.ix_(order[lo : lo + step], order)])]
        covers: list[list[int]] = [[] for _ in range(n)]
        for p, up in enumerate(ups):
            rest = (up >> (p + 1)) << (p + 1)
            while rest:
                q = (rest & -rest).bit_length() - 1
                covers[p].append(q)
                rest &= ~ups[q]
        if _reach(n, covers)[1] != ups:
            raise ValueError("relation is not transitive")
        ids = order.tolist()
        return cls(n, [(ids[p], ids[q]) for p in range(n) for q in covers[p]])

    @classmethod
    def from_leq(cls, n: int, leq: Callable[[int, int], bool]) -> "FinitePoset":
        """``from_matrix`` on the n x n matrix of the predicate ``leq``."""
        matrix = np.array([[leq(i, j) for j in range(n)] for i in range(n)], dtype=bool)
        return cls.from_matrix(matrix.reshape(n, n))

    # -- exports -----------------------------------------------------------

    def to_dot(
        self,
        labels: Optional[Sequence[str]] = None,
        edge_label: Optional[Callable[[int, int], str]] = None,
        name: str = "poset",
    ) -> str:
        """Graphviz DOT text; edges are directed upward (rankdir=BT)."""
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i in range(self.n):
            lines.append(f'  n{i} [label="{labels[i]}"];')
        for a, b in self.edges():
            if edge_label is None:
                lines.append(f"  n{a} -> n{b};")
            else:
                lines.append(f'  n{a} -> n{b} [label="{edge_label(a, b)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def covers_json(self) -> str:
        return json.dumps({"n": self.n, "covers": sorted(self.edges())})


# -- lattice tables ---------------------------------------------------------


def _packed(masks: Sequence[int], n: Optional[int] = None) -> np.ndarray:
    """Bitmask i as uint8 row i of n bits (default len(masks)): bit j in byte j >> 3."""
    width = ((len(masks) if n is None else n) + 7) // 8
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)


def _masks(matrix: np.ndarray) -> list[int]:
    """Row i of a bool matrix as a bitmask: the inverse of ``_packed``."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _matrix(masks: Sequence[int], n: Optional[int] = None) -> np.ndarray:
    """The bitmasks as bool rows of n columns (default len(masks)): the inverse of ``_masks``."""
    n = len(masks) if n is None else n
    return np.unpackbits(_packed(masks, n), axis=1, count=n, bitorder="little").view(bool)


# the tables hold element ids, so they index at most TABLE_LIMIT elements and
# cost 2 * N^2 * TABLE_DTYPE.itemsize bytes together
TABLE_DTYPE = np.dtype(np.uint16)
TABLE_LIMIT = int(np.iinfo(TABLE_DTYPE).max) + 1

# entries per block when a finished table's positions become ids, per
# gather of one step of the level walk, or per distributivity gather, so that
# the only temporaries of those steps are small blocks, not a second N x N
# (or N^3) array
_ID_BLOCK = 1 << 16


def _above_all(top: int, down: Sequence[int], bound: str) -> None:
    """NotALattice unless the down-set of ``top`` is everything, naming
    ``top`` and the least element missing from it; given up-sets, the test
    for a least element, with ``bound`` "lower"."""
    missing = ~down[top] & ((1 << len(down)) - 1)
    if missing:
        raise NotALattice(f"elements {top} and {(missing & -missing).bit_length() - 1} have no {bound} bound")


def _bound_table(
    topo: Sequence[int],
    covers,
    levels: Sequence[int],
    down: Sequence[int],
    bound: str,
    least: str,
    certify: bool = True,
) -> np.ndarray:
    """The join table, each row built from the rows of the upper covers.

    Off the down-set of i, the upper bounds of i and j are those of c v j
    over the covers c of i, so i v j is the candidate w of least
    topological position, once w is shown below every candidate:
    c v w = c v j for each c.  While the rows are built their entries are
    ``topo`` positions, so the least candidate is a plain min over the cover
    rows; the finished table is turned into element ids in place.  Given the
    reversed order, lower covers, ``height_below`` and up-sets, the same walk
    builds the meet table.

    The walk goes by depth level: ``levels`` is the length of a longest
    path up to a maximal element (``depth_above``), and each cover of a row
    lies on a level of smaller depth, so all rows of one level are built at
    once.  A level's rows go in groups with the same number c of covers, and
    a group in steps of about ``_ID_BLOCK`` gathered entries.  Each step
    takes one gather of the (rows, c, N) cover rows, one min over the
    covers, one unpacking of the rows' packed down-sets, one fill of each
    row's own position where j <= i, and one gather of the chosen ids.  The
    certificate then runs per row, on its contiguous (c, N) block of cover
    rows: one gather and one comparison.  The filled entries need no mask,
    as there c v i = c = c v j.

    "No upper bound" is decided first, at ``topo[-1]``: it is maximal, so
    once its down-set is everything it is the one element without covers.
    A failed certificate is recorded and the walk goes on.  At its end,
    NotALattice names the failing row of greatest position and its first
    failing column: the pair that a walk one row at a time in reverse
    ``topo`` order names, as that walk stops at this row.  Every row reads
    only rows of greater position, so the rows above this one are built as
    in that walk, and pass; this row reads the same rows as there, and fails
    at the same column; and a row built from a failed row lies below it, at
    a lesser position.

    With ``certify`` false the certificate is skipped, so only "no bound"
    can be raised.  That is exact for the meet walk once the join walk is
    certified, by the lemma that a finite join-semilattice with a least
    element is a lattice; ``_tables`` gives the proof.
    """
    n = len(topo)
    if n > TABLE_LIMIT:
        raise ValueError(f"{n:,} elements are more than {TABLE_DTYPE} tables can index ({TABLE_LIMIT:,})")
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    if not n:
        return table
    _above_all(topo[-1], down, bound)
    table[topo[-1]] = n - 1
    order = np.array(topo, dtype=np.intp)
    position = np.empty(n, dtype=TABLE_DTYPE)
    position[order] = np.arange(n)
    packed = _packed(down)
    counts = np.fromiter(map(len, covers), dtype=np.intp, count=n)
    flat = np.fromiter(itertools.chain.from_iterable(covers), dtype=np.intp, count=counts.sum())
    first = np.cumsum(counts) - counts
    levels = np.asarray(levels)
    by = np.lexsort((counts, levels))
    failed: dict[int, int] = {}  # failing row -> its first failing column
    # the first group is topo[-1] alone, the one element on level 0
    for group in np.split(by, np.flatnonzero(np.diff(levels[by]) | np.diff(counts[by])) + 1)[1:]:
        c = counts[group[0]]
        step = max(1, _ID_BLOCK // (c * n))
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            cover_rows = table.take(flat[first[rows, None] + np.arange(c)], axis=0)
            best = np.minimum.reduce(cover_rows, axis=1)
            below = np.unpackbits(packed.take(rows, axis=0), axis=1, count=n, bitorder="little").view(bool)
            np.copyto(best, position.take(rows)[:, None], where=below)
            if certify:
                for i, block, named in zip(rows.tolist(), cover_rows, order.take(best)):
                    agree = block.take(named, axis=1) == block
                    if not agree.all():
                        failed[i] = int(np.argmin(agree.all(axis=0)))
            table[rows] = best
    if failed:
        i = max(failed, key=position.__getitem__)
        raise NotALattice(f"elements {i} and {failed[i]} have two {least} {bound} bounds")
    ids = order.astype(TABLE_DTYPE)  # so that each block's gather is uint16, not intp
    step = max(1, _ID_BLOCK // n)
    for start in range(0, n, step):
        block = table[start : start + step]
        block[...] = ids.take(block)
    return table


def _join_table(P: FinitePoset) -> np.ndarray:
    """The certified join table, cached on P, once P has a least element:
    the lattice gate, as a finite join-semilattice with a least element is a
    lattice.  The least-element test raises what the meet walk would raise
    first, so the gate raises as ``_tables`` does, with no meet table."""
    join = P.__dict__.get("_join_table")
    if join is None:
        join = _bound_table(P.topo, P.up_adj, P.depth_above, P.down, "upper", "minimal")
        if P.n:
            _above_all(P.topo[0], P.up, "lower")
        join.flags.writeable = False
        P.__dict__["_join_table"] = join
    return join


def _tables(P: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """The certified join table, then the meet table by the same walk
    without the certificate.

    A finite join-semilattice with a least element is a lattice, and the
    uncertified meet walk is exact on it.  Once the join walk returns, P has
    a top and every pair has a join.  The meet walk starts at ``topo[0]``, a
    minimal element: unless it is the bottom, its up-set misses another
    minimal element, and "no lower bound" is raised as the certified walk
    would.  With a bottom, the common lower bounds of i and j have a join,
    which is i ^ j.  For j not above i, i ^ j < i lies below some lower
    cover c of i, so i ^ j = c ^ j, and every other candidate c' ^ j lies
    below both i and j, hence below i ^ j.  So i ^ j is the candidate of
    least reversed position, the one the min picks, and the meet
    certificate could never fail.
    """
    cached = P.__dict__.get("_lattice_tables")
    if cached is not None:
        return cached
    join = _join_table(P)
    meet = _bound_table(P.topo[::-1], P.down_adj, P.height_below, P.up, "lower", "maximal", certify=False)
    meet.flags.writeable = False
    P.__dict__["_lattice_tables"] = (join, meet)
    return join, meet


def lattice_tables(P: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """Join and meet tables; raises NotALattice when some pair has none."""
    return _tables(P)


def is_lattice(P: FinitePoset) -> bool:
    try:
        _join_table(P)
        return True
    except NotALattice:
        return False


# -- irreducibles and semidistributivity -------------------------------------


def atoms(P: FinitePoset) -> list[int]:
    return list(P.up_adj[P.bottom()])


def join_irreducibles(P: FinitePoset) -> list[int]:
    """Elements with exactly one lower cover (the bottom has none)."""
    return [i for i in range(P.n) if len(P.down_adj[i]) == 1]


def meet_irreducibles(P: FinitePoset) -> list[int]:
    return [i for i in range(P.n) if len(P.up_adj[i]) == 1]


def _kappa(up: Sequence[int], cover: int, j: int) -> Optional[int]:
    """The greatest element of up[cover] & ~up[j] (its one maximal element),
    or None; given down-sets and an upper cover, the dual kappa."""
    excluded = up[cover] & ~up[j]
    tops = [p for p in _bits(excluded) if up[p] & excluded == 1 << p]
    return tops[0] if len(tops) == 1 else None


def is_join_semidistributive(P: FinitePoset) -> bool:
    """The dual kappa exists for every meet-irreducible (Free Lattices, ch. II)."""
    _join_table(P)  # raises NotALattice on a non-lattice
    return all(_kappa(P.down, P.up_adj[m][0], m) is not None for m in meet_irreducibles(P))


def is_meet_semidistributive(P: FinitePoset) -> bool:
    """kappa exists for every join-irreducible (Free Lattices, ch. II)."""
    _join_table(P)  # raises NotALattice on a non-lattice
    return all(_kappa(P.up, P.down_adj[j][0], j) is not None for j in join_irreducibles(P))


def is_semidistributive(P: FinitePoset) -> bool:
    return is_join_semidistributive(P) and is_meet_semidistributive(P)


def is_distributive(P: FinitePoset) -> bool:
    """Whether x ∧ (q ∨ r) = (x ∧ q) ∨ (x ∧ r) for all x, q, r: the
    definition, tested by brute force over the tables.  Both sides are
    (B, N, N) gathers for a block of B elements x, with B·N² at most
    ``_ID_BLOCK`` entries (one x at a time past that)."""
    join, meet = _tables(P)
    step = max(1, _ID_BLOCK // max(P.n * P.n, 1))
    for lo in range(0, P.n, step):
        meets = meet[lo : lo + step]                          # x ∧ q
        left = np.take(meets, join, axis=1)                   # x ∧ (q ∨ r)
        right = join[meets[:, :, None], meets[:, None, :]]    # (x ∧ q) ∨ (x ∧ r)
        if not np.array_equal(left, right):
            return False
    return True


def lambda_jsd(P: FinitePoset, edge: Edge) -> int:
    """The least x with p ∨ x = q for the cover p ⋖ q, found as the least of
    the join-irreducibles j ≤ q with j ≰ p; NotJoinSemidistributive if none.

    Each such j has p < p ∨ j ≤ q, so p ∨ j = q; each x with p ∨ x = q lies
    above one, else x, the join of the join-irreducibles below it, is ≤ p.
    So both sets have the same least element, if any, and it is always
    join-irreducible.  A candidate exists, as q is the join of those below it.
    """
    p, q = edge
    if q not in P.up_adj[p]:
        raise ValueError(f"({p}, {q}) is not a cover")
    _join_table(P)  # raises NotALattice on a non-lattice
    if "_join_irreducible_mask" not in P.__dict__:
        P.__dict__["_join_irreducible_mask"] = sum(1 << j for j in join_irreducibles(P))
    candidates = P.down[q] & ~P.down[p] & P.__dict__["_join_irreducible_mask"]
    for label in _bits(candidates):
        if not candidates & ~P.up[label]:
            return label
    raise NotJoinSemidistributive(f"edge ({p}, {q}) has no least candidate")


# -- extremality and trimness -------------------------------------------------


def is_extremal(P: FinitePoset) -> bool:
    return P.length() == len(join_irreducibles(P)) == len(meet_irreducibles(P))


def _left_modular_test(P: FinitePoset) -> Callable[[int], bool]:
    """The test that x is left modular, (y ∨ x) ∧ z = y ∨ (x ∧ z) for all
    y < z, on covers: it holds iff no cover y ⋖ z has z ≤ y ∨ x and x ∧ z ≤ y.

    Such a cover fails the identity, with z on the left and y on the right.
    If some y < z fails it, g = y ∨ (x ∧ z) < f = (y ∨ x) ∧ z (g ≤ f always),
    and as g ∨ x = y ∨ x and x ∧ f = x ∧ z, each cover g ⋖ w ≤ f has
    w ≤ g ∨ x and x ∧ w ≤ x ∧ f ≤ g.  So the test reads row x of each table
    and, per edge, two join-table entries for the order: a ≤ b iff a ∨ b = b.
    """
    join, meet = _tables(P)
    flat = join.ravel()
    lower = np.repeat(np.arange(P.n), list(map(len, P.up_adj)))
    upper = np.fromiter(itertools.chain.from_iterable(P.up_adj), dtype=np.intp, count=len(lower))

    def test(x: int) -> bool:
        joins, meets = join[x].take(lower), meet[x].take(upper).astype(np.intp)  # y ∨ x, x ∧ z
        above = flat.take(upper * P.n + joins) == joins  # z ≤ y ∨ x
        return not np.logical_and(above, flat.take(meets * P.n + lower) == lower).any()  # and x ∧ z ≤ y

    return test


def is_left_modular_chain(P: FinitePoset, chain: Sequence[int]) -> bool:
    """Whether ``chain`` is a chain of covers of full length whose elements
    are all left-modular; the cheap tests run first."""
    return (
        len(chain) == P.length() + 1
        and all(b in P.up_adj[a] for a, b in zip(chain, chain[1:]))
        and all(map(_left_modular_test(P), chain))
    )


def left_modular_chain(P: FinitePoset) -> Optional[list[int]]:
    """A maximum-length maximal chain of left-modular elements, if one exists.

    Candidate chains are exactly the chains of full length, so the search
    walks the sub-DAG of elements lying on some maximum chain, memoizing the
    per-element left-modularity test.
    """
    k = P.length()
    lm = cache(_left_modular_test(P))
    on_max = [
        i for i in range(P.n) if P.height_below[i] + P.depth_above[i] == k
    ]
    on_max_set = set(on_max)
    starts = [i for i in on_max if P.height_below[i] == 0]

    def dfs(i: int, acc: list[int]) -> Optional[list[int]]:
        if not lm(i):
            return None
        acc.append(i)
        if P.height_below[i] == k:
            return acc
        for j in P.up_adj[i]:
            if j in on_max_set and P.height_below[j] == P.height_below[i] + 1:
                found = dfs(j, acc)
                if found is not None:
                    return found
        acc.pop()
        return None

    for s in starts:
        found = dfs(s, [])
        if found is not None:
            return found
    return None


def is_trim(P: FinitePoset) -> bool:
    return is_extremal(P) and left_modular_chain(P) is not None


# -- doubling -----------------------------------------------------------------


def doubling(P: FinitePoset, subset: Iterable[int]) -> FinitePoset:
    """Double P by the given subset.

    The result is the induced subposet of P x 2 on the down-set of the
    subset at level 1 together with (complement of that down-set) union the
    subset at level 2.
    """
    leq = _matrix(P.up)
    sub = np.zeros(P.n, dtype=bool)
    sub[list(subset)] = True
    below = leq[:, sub].any(axis=1)
    ground = np.concatenate([np.flatnonzero(below), np.flatnonzero(~below | sub)])
    upper = np.arange(len(ground)) >= below.sum()  # the points at level 2
    return FinitePoset.from_matrix(leq[np.ix_(ground, ground)] & (upper[:, None] <= upper))


# -- crowns -------------------------------------------------------------------


@dataclass(frozen=True)
class CrownWitness:
    atoms: tuple[int, ...]
    kappas: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.atoms)


def kappa(P: FinitePoset, j: int) -> int:
    """Greatest element above the lower cover of the join-irreducible j and
    not above j; raises KappaMissing when there is none."""
    (lower,) = P.down_adj[j]  # ValueError unless j is join-irreducible
    found = _kappa(P.up, lower, j)
    if found is None:
        raise KappaMissing(f"no greatest element above {lower} avoids being above {j}", (j,))
    return found


def find_crown(P: FinitePoset) -> CrownWitness:
    """Atoms together with their kappa elements.

    For a semidistributive lattice with k atoms this witnesses a k-crown:
    atom i sits below kappa(j) exactly when i differs from j, which also
    makes kappa injective.  With two or fewer atoms the relational pattern
    still holds but the 2k points need not be distinct.  KappaMissing names
    the first atom without a kappa, or the first atom and kappa off the
    pattern, in its ``elements``.
    """
    ats = atoms(P)
    kappas = [kappa(P, a) for a in ats]
    for i, a in enumerate(ats):
        for j, kb in enumerate(kappas):
            if P.leq(a, kb) != (i != j):
                raise KappaMissing(f"crown pattern broken at atom {a} vs kappa {kb}", (a, kb))
    return CrownWitness(tuple(ats), tuple(kappas))


# -- polygonal intervals ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Polygon:
    bottom: int
    top: int
    chains: tuple[tuple[int, ...], tuple[int, ...]]


_POLYGON_BLOCK = 1 << 10  # candidate intervals per block of the polygon search


def _cover_rows(adj: Sequence[Sequence[int]]) -> np.ndarray:
    """The cover lists as the rows of an int array, padded with -1."""
    width = max(map(len, adj), default=0) or 1
    return np.array([[*covers] + [-1] * (width - len(covers)) for covers in adj], dtype=np.intp).reshape(-1, width)


def _polygon_arrays(P: FinitePoset) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bottoms, tops, and the chains (p, ..., q) of the polygonal intervals
    in one flat array, chain c at ``flat[offsets[c]:offsets[c + 1]]``: chains
    2k and 2k + 1 for polygon k, the one from the lesser cover of p first.

    The chains of a polygon [p, q] start at two upper covers a and b of p,
    and a v b is q (an interior a v b would be comparable to both chains),
    so only those joins are tried, by p and then q: P must be a lattice,
    else NotALattice is raised.  [p, q] is a polygon iff exactly two upper
    covers of p lie in it, and the walks from them meet exactly one upper
    cover inside it at every point before q.  Out-degree 2 at p and 1 on the
    walks make the interior the two walks (a chain of covers from p starts
    on one and cannot leave it), and the walks are disjoint, as a point on
    both would lie above a v b = q; so q has in-degree 2 and needs no test.
    Candidates go in blocks, each rung one numpy step of every live walk,
    and leave the walk when they fail.
    """
    join = _join_table(P)
    up = _cover_rows(P.up_adj)

    def inside(rows, bound):  # the covers c <= bound
        return (rows >= 0) & (join.take(rows * P.n + bound) == bound)

    keys = [np.zeros(0, dtype=np.intp)]
    for first, second in zip(*np.triu_indices(up.shape[1], 1)):
        p = np.flatnonzero(up[:, second] >= 0)  # the rows are packed: cover `first` exists too
        keys.append(p * P.n + join[up[p, first], up[p, second]])
    keys = np.sort(np.concatenate(keys))  # deduplicated by hand: np.unique's hash set outlives it in RSS
    keys, parts = keys[np.diff(keys, prepend=-1) != 0], []
    for lo in range(0, len(keys), _POLYGON_BLOCK):
        p, q = np.divmod(keys[lo : lo + _POLYGON_BLOCK], P.n)
        starts = inside(up[p], q[:, None])
        ok = starts.sum(axis=1) == 2
        live, x = np.flatnonzero(ok), up[p][starts & ok[:, None]].reshape(-1, 2)
        ends, rungs = np.repeat(q[:, None], 2, axis=1), [np.repeat(p[:, None], 2, axis=1)]
        while len(live):
            rungs.append(ends.copy())
            rungs[-1][live] = x
            top = q[live][:, None]
            covers, moving = up[x], x != top
            step = inside(covers, top[..., None])
            good = ((step.sum(axis=2) == 1) | ~moving).all(axis=1)
            ok[live[~good]] = False
            x = np.where(moving, np.take_along_axis(covers, step.argmax(axis=2)[..., None], axis=2)[..., 0], x)
            keep = good & (x != top).any(axis=1)
            live, x = live[keep], x[keep]
        chains = np.stack(rungs + [ends], axis=2)[ok]
        kept = np.ones(chains.shape, dtype=bool)  # a chain ends at its first q
        kept[..., 1:] = chains[..., :-1] != chains[..., -1:]
        parts.append((p[ok], q[ok], chains[kept].astype(TABLE_DTYPE), kept.sum(axis=2).ravel()))
    bottoms, tops, flat, lengths = (np.concatenate(part) for part in zip(*parts or [[keys] * 4]))  # or 4 empty
    return bottoms, tops, flat, np.concatenate(([0], np.cumsum(lengths)))


def polygonal_intervals(P: FinitePoset) -> list[Polygon]:
    """Intervals that are unions of two chains meeting only at the ends, gathered a block
    at a time from ``_polygon_arrays`` through one object array of the N ids, whose ints they share."""
    _, _, flat, offsets = _polygon_arrays(P)
    ids = np.array(range(P.n), dtype=object)
    out: list[Polygon] = []
    for lo in range(0, len(offsets) - 1, 2 * _POLYGON_BLOCK):
        cut = offsets[lo : lo + 2 * _POLYGON_BLOCK + 1]
        items, bounds = ids[flat[cut[0] : cut[-1]]].tolist(), (cut - cut[0]).tolist()
        chains = [tuple(items[a:b]) for a, b in zip(bounds, bounds[1:])]
        out.extend(Polygon(c1[0], c1[-1], (c1, c2)) for c1, c2 in zip(chains[0::2], chains[1::2]))
    return out


# -- misc ---------------------------------------------------------------------


def maximum_length_chain(P: FinitePoset) -> list[int]:
    """One chain of maximum length, chosen deterministically."""
    k = P.length()
    best = min(i for i in range(P.n) if P.height_below[i] + P.depth_above[i] == k and P.height_below[i] == 0)
    chain = [best]
    while P.depth_above[chain[-1]] > 0:
        nxt = min(
            j
            for j in P.up_adj[chain[-1]]
            if P.height_below[j] == P.height_below[chain[-1]] + 1
            and P.height_below[j] + P.depth_above[j] == k
        )
        chain.append(nxt)
    return chain
