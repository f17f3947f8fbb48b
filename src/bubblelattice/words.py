"""Shuffle words over two increasing alphabets.

Letters come from two disjoint alphabets x_1..x_m and y_1..y_n.  A shuffle
word is a duplicate-free sequence whose x-letters appear with strictly
increasing indices and whose y-letters do too.  Besides construction and
enumeration, this module provides restriction, inversion sets and their
bitmask code (``ShuffleWord.code``), the right-filling operators,
dualization, and reconstruction of a word from its support profile
(supports plus inversion set), which pins a word down uniquely.

The text encoding used throughout the repo is dotted tokens such as
``x1.y1.x2``; the empty word is written ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb
from typing import Iterable

from .errors import (
    DuplicateLetter,
    NotIncreasing,
    OutOfAlphabet,
    Unrealizable,
    WordError,
)

X_TAG = "x"
Y_TAG = "y"


@dataclass(frozen=True, order=True)
class Letter:
    """One letter: an x- or y-tag plus a 1-based index."""

    tag: str
    index: int

    @staticmethod
    @cache
    def x(index: int) -> "Letter":
        return Letter(X_TAG, index)

    @staticmethod
    @cache
    def y(index: int) -> "Letter":
        return Letter(Y_TAG, index)

    @property
    def is_x(self) -> bool:
        return self.tag == X_TAG

    def __str__(self) -> str:
        return f"{self.tag}{self.index}"


@dataclass(frozen=True)
class ShuffleWord:
    """An immutable shuffle word together with its ambient alphabet sizes.

    Construction validates the letters and builds ``code`` in one forward
    walk.  ``code`` is ``(xmask, ymask, rows, cols)``, where bit i stands
    for index i, ``rows[t]`` masks the x's after y_t (its inversion row)
    and ``cols[s]`` the y's after x_s (the row in the dual word).
    """

    letters: tuple[Letter, ...]
    m: int
    n: int
    code: tuple[int, int, tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        if m < 0 or n < 0:
            raise OutOfAlphabet(f"alphabet sizes must be nonnegative, got m={m} n={n}")
        sizes = (m, n)
        masks = [0, 0]  # the x's and the y's so far
        # after[0][s] is ~(y's before x_s) and after[1][t] is ~(x's before y_t)
        after = ([0] * (m + 1), [0] * (n + 1))
        for letter in self.letters:
            tag = letter.tag if isinstance(letter, Letter) else None
            side = 0 if tag == X_TAG else 1 if tag == Y_TAG else None
            if side is None:
                raise WordError(f"not a letter: {letter!r}")
            i = letter.index
            if i < 1 or i > sizes[side]:
                raise OutOfAlphabet(f"{letter} outside alphabet for m={m}, n={n}")
            earlier = masks[side] >> i  # letters of this alphabet with index >= i
            if earlier:
                if earlier & 1:
                    raise DuplicateLetter(f"duplicate letter {letter}")
                raise NotIncreasing(f"{tag}-letters out of order at {letter}")
            masks[side] |= 1 << i
            after[side][i] = ~masks[1 - side]
        xmask, ymask = masks
        rows = tuple([xmask & a for a in after[1]])
        cols = tuple([ymask & a for a in after[0]])
        object.__setattr__(self, "code", (xmask, ymask, rows, cols))

    @cached_property
    def xsupport(self) -> tuple[int, ...]:
        return _indices(self.code[0])

    @cached_property
    def ysupport(self) -> tuple[int, ...]:
        return _indices(self.code[1])

    @cached_property
    def inversions(self) -> frozenset[tuple[int, int]]:
        """Pairs (s, t) such that y_t occurs before x_s in this word."""
        rows = self.code[2]
        return frozenset((s, t) for t in self.ysupport for s in _indices(rows[t]))

    @property
    def sort_key(self) -> tuple[tuple[str, int], ...]:
        # x-letters compare below y-letters, then by index: the canonical
        # code order used for deterministic enumeration and golden files.
        return tuple((l.tag, l.index) for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return word_text(self)

    def __repr__(self) -> str:
        return f"ShuffleWord({word_text(self)!r}, m={self.m}, n={self.n})"


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def word_text(u: ShuffleWord) -> str:
    if not u.letters:
        return "-"
    return ".".join(str(l) for l in u.letters)


def parse_word(text: str, m: int, n: int) -> ShuffleWord:
    """Parse the dotted encoding, e.g. ``x1.y1.x2``; ``-`` is the empty word."""
    text = text.strip()
    if text in ("", "-"):
        return ShuffleWord((), m, n)
    letters = []
    for token in text.split("."):
        token = token.strip()
        if len(token) < 2 or token[0] not in (X_TAG, Y_TAG) or not token[1:].isdigit():
            raise WordError(f"bad letter token {token!r}")
        letters.append(Letter(token[0], int(token[1:])))
    return ShuffleWord(tuple(letters), m, n)


def count_shuffle(m: int, n: int) -> int:
    """Number of shuffle words, by summing interleavings over support pairs."""
    return sum(
        comb(m, a) * comb(n, b) * comb(a + b, a)
        for a in range(m + 1)
        for b in range(n + 1)
    )


def enumerate_shuffle(m: int, n: int) -> tuple[ShuffleWord, ...]:
    """All shuffle words for the given alphabet sizes, in canonical order.

    The order needs no sort: the depth-first search below emits each prefix
    before its extensions, and tries the next letters in increasing
    ``(tag, index)`` order, every x before every y.  So of two words, the
    one emitted first is a proper prefix of the other, or at the first
    letter where they differ it took the branch tried earlier, which is the
    smaller letter: its ``sort_key`` is the lesser one either way.
    """
    if m < 0 or n < 0:
        raise OutOfAlphabet(f"alphabet sizes must be nonnegative, got m={m} n={n}")
    found: list[tuple[Letter, ...]] = []
    prefix: list[Letter] = []

    def extend(next_x: int, next_y: int) -> None:
        found.append(tuple(prefix))
        for i in range(next_x, m + 1):
            prefix.append(Letter.x(i))
            extend(i + 1, next_y)
            prefix.pop()
        for j in range(next_y, n + 1):
            prefix.append(Letter.y(j))
            extend(next_x, j + 1)
            prefix.pop()

    extend(1, 1)
    return tuple(ShuffleWord(ls, m, n) for ls in found)


def restriction(u: ShuffleWord, v: ShuffleWord) -> ShuffleWord:
    """Subword of u formed by the letters common to u and v."""
    common = set(u.letters) & set(v.letters)
    return ShuffleWord(tuple(l for l in u.letters if l in common), u.m, u.n)


def y_fill(u: ShuffleWord) -> ShuffleWord:
    """Insert the missing y-letters as far right as possible.

    Missing indices are processed in decreasing order; each y_j is inserted
    immediately left of the smallest present y_k with k > j, or appended at
    the end when no such letter exists.
    """
    seq, ymask = u.letters, u.code[1]
    for j in range(u.n, 0, -1):
        if not ymask >> j & 1:
            seq = _insert_y(seq, j)
    return ShuffleWord(seq, u.m, u.n)


def _insert_y(seq: tuple[Letter, ...], j: int) -> tuple[Letter, ...]:
    """``seq`` with y_j put just before its first larger y, or at the end."""
    pos = next((p for p, l in enumerate(seq) if not l.is_x and l.index > j), len(seq))
    return seq[:pos] + (Letter.y(j),) + seq[pos:]


def dualize(u: ShuffleWord) -> ShuffleWord:
    """Exchange x's for y's (and vice versa); lands in the swapped family."""
    swapped = tuple(
        Letter.y(l.index) if l.is_x else Letter.x(l.index) for l in u.letters
    )
    return ShuffleWord(swapped, u.n, u.m)


def x_fill(u: ShuffleWord) -> ShuffleWord:
    """Insert the missing x-letters, dually to y_fill."""
    return dualize(y_fill(dualize(u)))


@dataclass(frozen=True)
class SupportProfile:
    """Supports plus inversion set: the data that determines a word uniquely."""

    xsupp: tuple[int, ...]
    ysupp: tuple[int, ...]
    inv: frozenset[tuple[int, int]]
    m: int
    n: int

    def __post_init__(self) -> None:
        for supp, bound, name in ((self.xsupp, self.m, "x"), (self.ysupp, self.n, "y")):
            if list(supp) != sorted(set(supp)):
                raise WordError(f"{name}-support must be strictly increasing")
            if supp and (supp[0] < 1 or supp[-1] > bound):
                raise OutOfAlphabet(f"{name}-support outside alphabet")
        xset, yset = set(self.xsupp), set(self.ysupp)
        for s, t in self.inv:
            if s not in xset or t not in yset:
                raise WordError(f"inversion ({s},{t}) mentions letters outside the supports")


def profile(u: ShuffleWord) -> SupportProfile:
    return SupportProfile(u.xsupport, u.ysupport, u.inversions, u.m, u.n)


def word_from_profile(p: SupportProfile) -> ShuffleWord:
    """The unique word with the given supports and inversion set.

    Realizable profiles are exactly those where each y-row of the inversion
    set is a suffix of the x-support and the rows weakly shrink as the
    y-index grows; anything else raises Unrealizable.
    """
    xs = p.xsupp
    rows: dict[int, tuple[int, ...]] = {}
    for t in p.ysupp:
        rows[t] = tuple(sorted(s for (s, tt) in p.inv if tt == t))
    prev_len = len(xs)
    for t in p.ysupp:
        row = rows[t]
        if row != xs[len(xs) - len(row):]:
            raise Unrealizable(f"inversions of y_{t} are not a suffix of the x-support")
        if len(row) > prev_len:
            raise Unrealizable(f"inversions of y_{t} exceed those of a smaller y-letter")
        prev_len = len(row)

    movers = [(Letter.y(t), len(rows[t])) for t in reversed(p.ysupp)]
    return ShuffleWord(_place([Letter.x(s) for s in xs], movers), p.m, p.n)


def _place(fixed: list[Letter], movers: Iterable[tuple[Letter, int]]) -> tuple[Letter, ...]:
    """``fixed`` in order, each mover ``(letter, k)`` put just before the last
    k of them; movers come largest index first, so ties stay increasing."""
    seq = list(fixed)
    for letter, k in movers:
        seq.insert(len(fixed) - k, letter)
    return tuple(seq)
