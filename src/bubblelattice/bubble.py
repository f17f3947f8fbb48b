"""The two orders on shuffle words and the resulting lattice families.

The shuffle order moves upward by inserting y-letters or deleting
x-letters; the bubble order additionally allows swapping an adjacent
``x y`` pair into ``y x``.  Covers in the bubble order are generated
constructively (per-letter right indels and transpositions) rather than by
transitive reduction.  Covers, both orders, joins (the y-filling formula)
and meets (its dual) run on the bitmask code of ``ShuffleWord.code``, per
pair or as numpy arrays over a whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded
from .posets import _ROW_BLOCK, TABLE_DTYPE, TABLE_LIMIT, FinitePoset
from .words import Letter, ShuffleWord, _place, count_shuffle, enumerate_shuffle

DEFAULT_CAP = 20_000


def leq_shuffle(u: ShuffleWord, v: ShuffleWord) -> bool:
    """Shuffle order: x's may only disappear, y's only appear, rest agrees."""
    ux, uy, urows, _ = u.code
    vx, vy, vrows, _ = v.code
    if vx & ~ux or uy & ~vy:
        return False
    for t in u.ysupport:
        if urows[t] & vx != vrows[t]:
            return False
    return True


def leq_bubble(u: ShuffleWord, v: ShuffleWord) -> bool:
    """Bubble order: like the shuffle order but inversions may also grow."""
    ux, uy, urows, _ = u.code
    vx, vy, vrows, _ = v.code
    if vx & ~ux or uy & ~vy:
        return False
    for t in u.ysupport:
        if urows[t] & vx & ~vrows[t]:
            return False
    return True


def _codes(words: Sequence[ShuffleWord], dtype=np.int64):
    """The x-masks, y-masks, rows and cols of one family's words, as arrays."""
    return tuple(np.array(part, dtype=dtype) for part in zip(*(w.code for w in words)))


def _filled(rows, movers):
    """``rows`` with each missing mover's row replaced by that of the next
    larger present mover, or 0 past the last: the slot rule of ``y_fill``."""
    filled = rows.copy()
    for t in range(rows.shape[1] - 2, 0, -1):
        missing = (movers >> t & 1) == 0
        filled[missing, t] = filled[missing, t + 1]
    return filled


def order_relation(words: Sequence[ShuffleWord], _shuffle: bool = False):
    """The bubble relation on ``words``, or with ``_shuffle`` the shuffle
    relation, as a read-only N x N bool matrix.

    Entry [i, j] is ``leq_bubble(words[i], words[j])`` (resp.
    ``leq_shuffle``), from ``ShuffleWord.code`` in the narrowest unsigned
    dtype that holds every letter's bit, in row blocks of about a quarter
    of ``_ROW_BLOCK`` entries.  Each block ORs the bits that break the
    order into one buffer, 0 iff u <= v: an x of v missing from u, a y of
    u missing from v, and per y_t of u an inversion kept by v's x's but not
    in v's row (resp. any difference of the two rows on v's x's).  That
    buffer and one that holds each term in turn are allocated once per call
    and every step writes into them, so no temporary is near N x N.  A family keeps
    only the bubble relation; the shuffle matrix is built where it is read.
    """
    count = len(words)
    dtype = np.min_scalar_type(1 << max((max(w.m, w.n) for w in words), default=0))
    xs, ys, rows, _ = _codes(words, dtype)
    rows = np.ascontiguousarray(rows.T)  # rows[t] holds row t of every word
    not_xs, not_ys = ~xs, ~ys
    if _shuffle:  # has[t] is all ones where u has y_t: only those rows must agree
        has = (0 - (ys >> np.arange(len(rows))[:, None] & 1)).astype(dtype)
    else:
        not_rows = ~rows
    relation = np.empty((count, count), dtype=bool)
    step = max(1, _ROW_BLOCK // 4 // max(count, 1))
    broken, kept = np.empty((2, min(step, count), count), dtype)
    for lo in range(0, count, step):
        block = slice(lo, lo + step)
        size = min(step, count - lo)
        bad, part = broken[:size], kept[:size]
        np.bitwise_and(xs, not_xs[block, None], out=bad)
        np.bitwise_and(ys[block, None], not_ys, out=part)
        bad |= part
        for t in range(1, len(rows)):
            np.bitwise_and(rows[t, block, None], xs, out=part)
            if _shuffle:
                part ^= rows[t]
                part &= has[t, block, None]
            else:
                part &= not_rows[t]
            bad |= part
        np.equal(bad, 0, out=relation[block])
    relation.flags.writeable = False
    return relation


@dataclass(frozen=True)
class CoverStep:
    """How one word covers another: a transposition or a right indel.

    A transposition records exactly the inversion pair it creates.
    """

    kind: str  # "transposition" | "delete_x" | "insert_y"
    s: Optional[int] = None
    t: Optional[int] = None


STEP_KINDS = ("delete_x", "insert_y", "transposition")  # by their codes in ``_cover_steps``


def _cover_steps(words: Sequence[ShuffleWord]):
    """The upper covers of the words of one family, as int arrays ``(src,
    dst, kind, s, t)``: ``words[dst]`` covers ``words[src]`` by the step
    ``CoverStep(STEP_KINDS[kind], s, t)``, read off the code.  A present
    x_s swaps with y_t, the first y after it, when no x lies between, so
    bit s joins ``rows[t]``, and is deleted otherwise; an absent y_j takes
    the row of the next larger present y, or 0.  Each cover is looked up by
    its ``_union_keys`` key; one missing from ``words`` raises ValueError.
    """
    xs, ys, rows, cols = _codes(words)
    width = int(np.bitwise_or.reduce(xs, initial=0)).bit_length()
    batches = [(xs[:0], xs[:0], 0, 0, 0)]  # (src, cover keys, kind, s, t); empty without covers
    for s in range(1, cols.shape[1]):
        src = np.flatnonzero(xs >> s & 1)
        after = cols[src, s]
        t = np.searchsorted(1 << np.arange(rows.shape[1]), after & -after)  # the first y after x_s, or 0
        new = rows[src]
        swap = (t > 0) & ((xs[src] & ~new[np.arange(len(src)), t]) >> (s + 1) == 0)
        new[swap, t[swap]] |= 1 << s
        keep = np.where(swap, xs[src], xs[src] & ~(1 << s))
        covers = _union_keys(keep, ys[src], new, new, width)
        batches.append((src, covers, 2 * swap, s, np.where(swap, t, 0)))
    filled = _filled(rows, ys)
    for j in range(1, rows.shape[1]):
        src = np.flatnonzero(ys >> j & 1 == 0)
        covers = _union_keys(xs[src], ys[src] | 1 << j, filled[src], filled[src], width)
        batches.append((src, covers, 1, 0, j))
    columns = (np.concatenate([np.broadcast_to(b[k], b[0].shape) for b in batches]) for k in range(5))
    src, covers, kind, s, t = columns
    keys = _union_keys(xs, ys, rows, rows, width)
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], covers).clip(max=len(keys) - 1)
    missing = np.flatnonzero(keys[order[pos]] != covers)
    if len(missing):
        raise ValueError(f"a cover of {words[src[missing[0]]]} is not among the words")
    return src, order[pos], kind.astype(np.int8), s.astype(np.int8), t.astype(np.int8)


def join(u: ShuffleWord, v: ShuffleWord) -> ShuffleWord:
    """Least upper bound in the bubble order, via the y-filling formula.

    The join keeps the common x's, all the y's, and the union of the
    inversions the two y-filled words induce on that support.
    """
    if (u.m, u.n) != (v.m, v.n):
        raise ValueError("join requires words from the same family")
    (ux, uy, urows, _), (vx, vy, vrows, _) = u.code, v.code
    return _filled_union(u, ux & vx, Letter.x, uy, urows, vy, vrows, Letter.y)


def meet(u: ShuffleWord, v: ShuffleWord) -> ShuffleWord:
    """Greatest lower bound: the join with the roles of x and y exchanged."""
    if (u.m, u.n) != (v.m, v.n):
        raise ValueError("meet requires words from the same family")
    (ux, uy, _, ucols), (vx, vy, _, vcols) = u.code, v.code
    return _filled_union(u, uy & vy, Letter.y, ux, ucols, vx, vcols, Letter.x)


def _filled_union(u, keep, fixed, u_has, u_rows, v_has, v_rows, mover) -> ShuffleWord:
    """The word of u's family with the fixed letters in ``keep`` and the
    movers of u or v, each mover inverted with the union of its two filled
    rows on ``keep``.  Filling gives a missing mover the row of the next
    larger present one, or 0 past the last: the slot rule of ``y_fill``."""
    fu = fv = 0
    movers = []
    for t in range(len(u_rows) - 1, 0, -1):
        if u_has >> t & 1:
            fu = u_rows[t]
        if v_has >> t & 1:
            fv = v_rows[t]
        if (u_has | v_has) >> t & 1:
            movers.append((mover(t), ((fu | fv) & keep).bit_count()))
    kept = [fixed(s) for s in range(1, keep.bit_length()) if keep >> s & 1]
    return ShuffleWord(_place(kept, movers), u.m, u.n)


_BLOCK_ENTRIES = 4096  # table entries per block of ``filling_tables``


def filling_tables(words: Sequence[ShuffleWord]):
    """Yield ``(lo, join_rows, meet_rows)``: the pairs a <= b of rows lo..
    of the join and meet tables of ``words`` by the y-filling formula, read
    from ``ShuffleWord.code``, as the columns lo.. of those rows.

    Entry [a - lo, b - lo] is the index in ``words`` of ``join(words[a],
    words[b])`` (resp. ``meet``), or -1 where that word is not in ``words``.
    Both are commutative, so a pair b < a is read from the rows of b; a
    block's entries with b < a are computed but carry no promise.  Each
    word's mover rows are filled by the slot rule (``_filled``); the union
    of two filled words is packed into an int64 key and looked up among the
    keys of ``words``.  The meet is the join with x and y exchanged, on
    ``cols``.  Each block takes as many rows as make about
    ``_BLOCK_ENTRIES`` entries against its N - lo columns, so no N x N
    table is built.
    """
    count = len(words)
    if not count:
        return
    xs, ys, rows, cols = _codes(words)
    sides = []
    for fixed, movers, own in ((xs, ys, rows), (ys, xs, cols)):
        width = int(np.bitwise_or.reduce(fixed, initial=0)).bit_length()
        keys = _union_keys(fixed, movers, own, own, width)  # a word is its own union
        order = np.argsort(keys)
        sides.append((fixed, movers, _filled(own, movers), width, keys[order], order))
    lo = 0
    while lo < count:
        step = max(1, _BLOCK_ENTRIES // (count - lo))  # more rows as the columns lo.. shrink
        block, rest = slice(lo, lo + step), slice(lo, None)
        found = []
        for fixed, movers, filled, width, keys, order in sides:
            union = _union_keys(
                fixed[block, None] & fixed[rest], movers[block, None] | movers[rest],
                filled[block, None], filled[rest], width,
            )
            pos = np.searchsorted(keys, union).clip(max=count - 1)
            found.append(np.where(keys[pos] == union, order[pos], -1))
        yield lo, found[0], found[1]
        lo += step


def _union_keys(keep, present, first, second, width):
    """The int64 key of the word with fixed letters ``keep``, movers
    ``present`` and mover t inverted with ``(first | second)[..., t] & keep``:
    the masks and rows side by side, ``width`` bits per fixed-letter mask."""
    shift = width + second.shape[-1]
    if shift + width * (second.shape[-1] - 1) > 63:
        raise ValueError("family too large for int64 word keys")
    key = keep | present << width
    for t in range(1, second.shape[-1]):
        row = (first[..., t] | second[..., t]) & keep & -(present >> t & 1)
        key |= row << shift
        shift += width
    return key


@dataclass(frozen=True)
class LatticeFamily:
    """A fully built order on all shuffle words of one alphabet pair."""

    m: int
    n: int
    words: tuple[ShuffleWord, ...]
    poset: FinitePoset
    steps: tuple = field(default=(), repr=False, compare=False)  # ``_cover_steps`` of a bubble family

    def index(self, u: ShuffleWord) -> int:
        return self._index[u]

    @cached_property
    def relation(self):
        """The bubble matrix ``order_relation(self.words)``."""
        return order_relation(self.words)

    @cached_property
    def _index(self) -> dict[ShuffleWord, int]:
        return {w: i for i, w in enumerate(self.words)}

    def labels(self) -> list[str]:
        return [str(w) for w in self.words]


def _check_cap(m: int, n: int, cap: Optional[int]) -> None:
    """Refuse a family above the cap, or above TABLE_LIMIT whatever the cap,
    before it is enumerated."""
    limit = DEFAULT_CAP if cap is None else cap
    size = count_shuffle(m, n)
    if size > min(limit, TABLE_LIMIT):
        above = f"the cap {limit:,}" if size > limit else f"the {TABLE_LIMIT:,} that {TABLE_DTYPE} tables can index"
        raise CapExceeded(
            f"family ({m},{n}) has {size:,} elements, above {above}; "
            f"its join and meet tables alone would need {2 * size**2 * TABLE_DTYPE.itemsize / 1e9:.1f} GB"
        )


def build_bubble_lattice(m: int, n: int, cap: Optional[int] = None) -> LatticeFamily:
    """Hasse diagram of the bubble order from the cover rules; keeps the steps."""
    _check_cap(m, n, cap)
    words = enumerate_shuffle(m, n)
    steps = _cover_steps(words)
    ids = list(range(len(words)))  # one int object per element, shared by its edges
    edges = zip(map(ids.__getitem__, steps[0].tolist()), map(ids.__getitem__, steps[1].tolist()))
    return LatticeFamily(m, n, words, FinitePoset(len(words), edges), steps)


def build_shuffle_poset(m: int, n: int, cap: Optional[int] = None) -> LatticeFamily:
    """Hasse diagram of the shuffle order, by transitive reduction."""
    _check_cap(m, n, cap)
    words = enumerate_shuffle(m, n)
    return LatticeFamily(m, n, words, FinitePoset.from_matrix(order_relation(words, _shuffle=True)))


def extremal_chain_words(m: int, n: int) -> list[ShuffleWord]:
    """A maximum-length chain: append all y's, sweep each y left, delete x's.

    Appending y_1..y_n, transposing each y_j across all of the x's, and then
    deleting x_m..x_1 gives mn+m+n covers in a row.
    """
    seq: list[Letter] = [Letter.x(i) for i in range(1, m + 1)]
    chain = [ShuffleWord(tuple(seq), m, n)]
    for j in range(1, n + 1):
        seq.append(Letter.y(j))
        chain.append(ShuffleWord(tuple(seq), m, n))
    for j in range(1, n + 1):
        pos = seq.index(Letter.y(j))
        for _ in range(m):
            seq[pos - 1], seq[pos] = seq[pos], seq[pos - 1]
            pos -= 1
            chain.append(ShuffleWord(tuple(seq), m, n))
    for _ in range(m):
        seq.pop()
        chain.append(ShuffleWord(tuple(seq), m, n))
    return chain
