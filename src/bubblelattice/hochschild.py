"""Triwords, their componentwise lattice, and the single-y encoding map.

A triword is a {0,1,2}-tuple that never starts with 2 and never has a 1
after a 0.  Shuffle words with a single y-letter encode as triwords: absent
x's become 2s (written in reversed x-order), and the prefix up to the y's
position fills with 1s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bubble import LatticeFamily
from .errors import InvalidTriword, WrongFamily
from .posets import FinitePoset
from .words import ShuffleWord


@dataclass(frozen=True, order=True)
class Triword:
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise InvalidTriword("triwords have positive length")
        if any(e not in (0, 1, 2) for e in entries):
            raise InvalidTriword(f"entries outside {{0,1,2}}: {entries}")
        if entries[0] == 2:
            raise InvalidTriword(f"first entry is 2: {entries}")
        seen_zero = False
        for e in entries:
            if e == 0:
                seen_zero = True
            elif e == 1 and seen_zero:
                raise InvalidTriword(f"1 after 0: {entries}")

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def enumerate_triwords(n: int) -> tuple[Triword, ...]:
    """All triwords of length n, in lexicographic order."""
    if n < 1:
        raise InvalidTriword("length must be at least 1")
    out: list[Triword] = []

    def extend(prefix: list[int], seen_zero: bool) -> None:
        if len(prefix) == n:
            out.append(Triword(tuple(prefix)))
            return
        for e in (0, 1, 2):
            if e == 2 and not prefix:
                continue
            if e == 1 and seen_zero:
                continue
            prefix.append(e)
            extend(prefix, seen_zero or e == 0)
            prefix.pop()

    extend([], False)
    return tuple(out)


def hochschild_lattice(n: int) -> tuple[tuple[Triword, ...], FinitePoset]:
    """Triwords of length n under the componentwise order."""
    tris = enumerate_triwords(n)
    entries = np.array([t.entries for t in tris], dtype=np.int8)
    leq = (entries[:, None] <= entries[None]).all(axis=-1)
    return tris, FinitePoset.from_matrix(leq)


def sigma_tilde(u: ShuffleWord, n: int) -> Triword:
    """Encode a single-y-alphabet shuffle word as a triword of length n.

    Position n+1-s carries 2 when x_s is absent.  When y_1 is present right
    after x_s (s = 0 when y_1 leads), the positions 1..n-s that are not
    2-marked carry 1.  Everything else is 0.
    """
    if u.m != n - 1 or u.n != 1:
        raise WrongFamily(f"{u!r} is not a shuffle word for alphabet sizes ({n - 1}, 1)")
    entries = [0] * n
    present = set(u.xsupport)
    for s in range(1, n):
        if s not in present:
            entries[n - s] = 2  # 0-based position n+1-s
    if u.ysupport:
        s = 0
        for letter in u.letters:
            if letter.is_x:
                s = letter.index
            else:
                break
        for i in range(n - s):
            if entries[i] != 2:
                entries[i] = 1
    return Triword(tuple(entries))


def unmatched_word(family: LatticeFamily) -> Optional[int]:
    """The first word whose encoding repeats an earlier word's or is no
    triword of length m + 1, else the first word whose upper covers are not
    sent onto the upper covers of its image; None if there is none."""
    n = family.m + 1
    tris, tri_poset = hochschild_lattice(n)
    tri_index = {t: i for i, t in enumerate(tris)}
    forward = [tri_index.get(sigma_tilde(w, n), -1) for w in family.words]
    seen: set[int] = set()
    for i, t in enumerate(forward):
        if t < 0 or t in seen:
            return i
        seen.add(t)
    for i, t in enumerate(forward):
        if tuple(sorted(forward[c] for c in family.poset.up_adj[i])) != tri_poset.up_adj[t]:
            return i
    return None


def verify_hochschild_iso(family: LatticeFamily) -> bool:
    """Does the encoding map the single-y bubble lattice (m, 1) onto the
    triwords of length m + 1?

    An injective map into the triwords that sends the upper covers of each
    word onto those of its image is, when the counts agree, a bijection
    under which covers match in both directions: a genuine isomorphism
    rather than just an order map.
    """
    return len(family.words) == len(enumerate_triwords(family.m + 1)) and unmatched_word(family) is None
