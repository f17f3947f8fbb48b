"""Independent checks for the benchmark's outputs.

Nothing here imports bubblelattice.  Words are read back from their dotted
text (``x1.y1.x2``, ``-`` for the empty word), and every fact is checked
against the paper's definitions or closed forms:

- the global bubble order: the larger word has fewer x's, more y's, and on
  the common letters a superset of the inversions;
- the shuffle order: x's only disappear, y's only appear, and the common
  letters keep their relative order;
- family sizes, edge counts, irreducible counts, Galois arc counts,
  polygon counts and the triword encoding.

Each ``check_*`` function returns a list of failure messages, one per
wrong output; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from math import comb

PAIR_STRIDE = 32  # bit position of pair (s, t) is (s - 1) * PAIR_STRIDE + (t - 1)


# -- words ----------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    text: str
    letters: tuple[tuple[str, int], ...]
    x: int  # bitmask of present x indices (bit s - 1)
    y: int  # bitmask of present y indices (bit t - 1)
    inv: int  # bitmask of inversion pairs (y_t before x_s)

    @property
    def ys(self) -> list[int]:
        return [i for tag, i in self.letters if tag == "y"]


def pair_bit(s: int, t: int) -> int:
    return 1 << ((s - 1) * PAIR_STRIDE + (t - 1))


def parse(text: str, m: int, n: int) -> Word:
    """Read a dotted word; raise ValueError unless it is a shuffle word."""
    text = text.strip()
    letters: list[tuple[str, int]] = []
    if text not in ("", "-"):
        for token in text.split("."):
            match = re.fullmatch(r"([xy])([1-9][0-9]*)", token)
            if not match:
                raise ValueError(f"bad token {token!r} in {text!r}")
            letters.append((match.group(1), int(match.group(2))))
    x = y = inv = 0
    last = {"x": 0, "y": 0}
    for tag, i in letters:
        if i > (m if tag == "x" else n) or i <= last[tag]:
            raise ValueError(f"{text!r} is not a shuffle word for ({m},{n})")
        last[tag] = i
        if tag == "x":
            x |= 1 << (i - 1)
            for t in _bits(y):
                inv |= pair_bit(i, t + 1)
        else:
            y |= 1 << (i - 1)
    return Word(text if letters else "-", tuple(letters), x, y, inv)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


_ROWS: dict[int, int] = {}
_COLS: dict[int, int] = {}


def _common_pairs(xmask: int, ymask: int) -> int:
    """Bitmask of all pairs (s, t) with x_s in xmask and y_t in ymask."""
    rows = _ROWS.get(xmask)
    if rows is None:
        rows = 0
        for s in _bits(xmask):
            rows |= ((1 << PAIR_STRIDE) - 1) << (s * PAIR_STRIDE)
        _ROWS[xmask] = rows
    cols = _COLS.get(ymask)
    if cols is None:
        cols = 0
        for s in range(PAIR_STRIDE):
            cols |= ymask << (s * PAIR_STRIDE)
        _COLS[ymask] = cols
    return rows & cols


def leq(u: Word, v: Word) -> bool:
    """The paper's global bubble order."""
    if v.x & ~u.x or u.y & ~v.y:
        return False
    common = _common_pairs(v.x, u.y)
    return u.inv & common & ~v.inv == 0


def shuffle_leq(u: Word, v: Word) -> bool:
    """The shuffle order."""
    if v.x & ~u.x or u.y & ~v.y:
        return False
    return _restrict(u, v.x, u.y) == _restrict(v, v.x, u.y)


def _restrict(w: Word, xmask: int, ymask: int) -> tuple:
    return tuple(
        (tag, i)
        for tag, i in w.letters
        if (xmask if tag == "x" else ymask) >> (i - 1) & 1
    )


def order_key(w: Word) -> tuple[int, int, int]:
    """A linear extension of the bubble order: u < v implies key(u) < key(v)."""
    return (-_popcount(w.x), _popcount(w.y), _popcount(w.inv))


def up_degree(w: Word, n: int) -> int:
    """Upper covers in the bubble order: one per present x, one per absent y."""
    return _popcount(w.x) + n - _popcount(w.y)


def shuffle_up_degree(w: Word, n: int) -> int:
    """Upper covers in the shuffle order.

    Any present x may be deleted; an absent y_t may be inserted anywhere
    between its neighbouring present y's, one slot per x in that gap plus one.
    """
    ys = w.ys
    # positions of the present y's, bracketed by the two ends of the word;
    # only x's lie between neighbouring present y's
    bounds = [-1] + [k for k, (tag, _) in enumerate(w.letters) if tag == "y"] + [len(w.letters)]
    degree = _popcount(w.x)
    for t in range(1, n + 1):
        if t not in ys:
            below = sum(1 for i in ys if i < t)
            degree += bounds[below + 1] - bounds[below]
    return degree


def cover_label(u: Word, v: Word) -> str:
    """Label of the cover u -> v: deleted x, inserted y or created inversion."""
    if u.x != v.x:
        return f"x{(u.x & ~v.x).bit_length()}"
    if u.y != v.y:
        return f"y{(v.y & ~u.y).bit_length()}"
    bit = (v.inv & ~u.inv).bit_length() - 1
    return f"(x{bit // PAIR_STRIDE + 1},y{bit % PAIR_STRIDE + 1})"


def triword(w: Word, length: int) -> str:
    """The single-y encoding of w as a triword of the given length.

    Position length+1-s holds 2 when x_s is absent.  When y_1 is present
    right after x_s (s = 0 when y_1 leads), the other positions among the
    first length-s hold 1.  Everything else is 0.
    """
    entries = [0] * length
    for s in range(1, length):
        if not w.x >> (s - 1) & 1:
            entries[length - s] = 2
    if w.y:
        s = 0
        for tag, i in w.letters:
            if tag == "y":
                break
            s = i
        for k in range(length - s):
            if entries[k] != 2:
                entries[k] = 1
    return "(" + ",".join(map(str, entries)) + ")"


# -- closed forms ---------------------------------------------------------------


def family_size(m: int, n: int) -> int:
    """Shuffle words: choose the supports, then interleave them."""
    return sum(
        comb(m, a) * comb(n, b) * comb(a + b, a)
        for a in range(m + 1)
        for b in range(n + 1)
    )


def bubble_edges(m: int, n: int) -> int:
    """The Hasse diagram is (m+n)-regular."""
    return family_size(m, n) * (m + n) // 2


def irreducibles(m: int, n: int) -> int:
    return m * n + m + n


def galois_arcs(m: int, n: int) -> int:
    return m * n + m * (m + 1) * n * (n + 1) // 4


def triword_count(length: int) -> int:
    return 2 ** (length - 2) * (length + 3)


CHECK_IDS = {
    "order": (
        "order.axioms",
        "order.move_closure",
        "order.shuffle_suborder",
        "order.covers_match_reduction",
    ),
    "lattice": (
        "lattice.unique_joins",
        "lattice.hasse_regular",
        "lattice.extremal_counts",
        "lattice.same_support_distributive",
        "lattice.yfill_closure",
        "lattice.irreducibles_poset",
    ),
    "labeling": ("labeling.cu_conditions", "labeling.fibers_match_jsd"),
    "galois": ("galois.graphs_coincide",),
    "hochschild": ("hochschild.iso",),
    "duality": ("duality.anti_isomorphism",),
    "crown": ("crown.witness",),
}
EXPECTED_CHECKS = tuple(cid for ids in CHECK_IDS.values() for cid in ids)


def expected_details(m: int, n: int) -> dict[str, dict]:
    k = irreducibles(m, n)
    details = {
        "lattice.unique_joins": {"failing_pairs": 0},
        "lattice.hasse_regular": {"degree": m + n},
        "lattice.extremal_counts": {
            "length": k,
            "join_irreducibles": k,
            "meet_irreducibles": k,
        },
        "lattice.irreducibles_poset": {"component_sizes": sorted([1] * m + [m + 1] * n)},
        "galois.graphs_coincide": {"k": k, "reconstruction": "isomorphic"},
        "crown.witness": {"atoms": m + n, "dimension_lower_bound": m + n},
    }
    if n == 1:
        details["hochschild.iso"] = {"n": m + 1, "triwords": triword_count(m + 1)}
    return details


# -- check report ---------------------------------------------------------------


def check_report(text: str, rc: int, m: int, n: int) -> dict[str, list[str]]:
    """Failures per expected check id of one ``check m n --suite all`` report."""
    failures: dict[str, list[str]] = {cid: [] for cid in EXPECTED_CHECKS}
    try:
        report = json.loads(text)
        by_id = {c["id"]: c for c in report["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {cid: [f"unreadable report: {exc}"] for cid in EXPECTED_CHECKS}
    if rc != 0 or report.get("violations"):
        failures[EXPECTED_CHECKS[0]].append(
            f"exit {rc}, violations {report.get('violations')}"
        )
    if (report.get("m"), report.get("n")) != (m, n):
        failures[EXPECTED_CHECKS[0]].append("report names another family")
    details = expected_details(m, n)
    for cid in EXPECTED_CHECKS:
        entry = by_id.get(cid)
        if entry is None:
            failures[cid].append("missing from the report")
            continue
        want_status = "skip" if cid == "hochschild.iso" and n != 1 else "pass"
        if entry.get("status") != want_status:
            failures[cid].append(f"status {entry.get('status')}, expected {want_status}")
        for key, value in details.get(cid, {}).items():
            got = entry.get("detail", {}).get(key)
            if got != value:
                failures[cid].append(f"{key} = {got!r}, closed form {value!r}")
    return failures


# -- word pairs -----------------------------------------------------------------


def check_pair(
    u_text: str,
    v_text: str,
    m: int,
    n: int,
    join_text: str,
    meet_text: str,
    leq_uv: bool,
    leq_vu: bool,
    join_absorb_text: str,
    meet_absorb_text: str,
) -> list[str]:
    """One parsed, joined, met, compared and printed pair.

    ``join_absorb_text`` is u joined with (u meet v), ``meet_absorb_text`` is
    u met with (u join v); both must print as u.
    """
    out: list[str] = []
    u, v = parse(u_text, m, n), parse(v_text, m, n)
    try:
        j, mt = parse(join_text, m, n), parse(meet_text, m, n)
    except ValueError as exc:
        return [f"output is not a shuffle word: {exc}"]
    if not (leq(u, j) and leq(v, j)):
        out.append(f"join {j.text} is not above {u.text} and {v.text}")
    if not (leq(mt, u) and leq(mt, v)):
        out.append(f"meet {mt.text} is not below {u.text} and {v.text}")
    if (j.x, j.y) != (u.x & v.x, u.y | v.y):
        out.append(f"join {j.text} does not keep the common x's and all y's")
    if (mt.x, mt.y) != (u.x | v.x, u.y & v.y):
        out.append(f"meet {mt.text} does not keep all x's and the common y's")
    if (leq_uv, leq_vu) != (leq(u, v), leq(v, u)):
        out.append(f"comparison of {u.text} and {v.text} is wrong")
    if leq(u, v) and (j.text, mt.text) != (v.text, u.text):
        out.append(f"comparable pair {u.text} <= {v.text} has join {j.text}, meet {mt.text}")
    if (join_absorb_text, meet_absorb_text) != (u.text, u.text):
        out.append(f"absorption fails at {u.text}, {v.text}")
    return out


# -- exported files -------------------------------------------------------------


_NODE = re.compile(r'^\s*(\w+) \[label="([^"]*)"\];$')
_EDGE = re.compile(r'^\s*(\w+) -> (\w+)(?: \[label="([^"]*)"\])?;$')


def read_dot(text: str) -> tuple[dict[str, str], list[tuple[str, str, str | None]]]:
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str | None]] = []
    for line in text.splitlines():
        if match := _NODE.match(line):
            nodes[match.group(1)] = match.group(2)
        elif match := _EDGE.match(line):
            edges.append((match.group(1), match.group(2), match.group(3)))
    return nodes, edges


def check_family_dot(
    text: str, m: int, n: int, order: str, labeled: bool = False
) -> list[str]:
    """A Hasse diagram of the bubble or shuffle order on all (m, n) words."""
    nodes, edges = read_dot(text)
    out: list[str] = []
    try:
        words = {key: parse(label, m, n) for key, label in nodes.items()}
    except ValueError as exc:
        return [f"node is not a word: {exc}"]
    if len(words) != family_size(m, n) or len({w.text for w in words.values()}) != len(words):
        out.append(f"{len(words)} nodes, closed form {family_size(m, n)}")
    if order == "bubble":
        expected = bubble_edges(m, n)
        related = leq
    else:
        expected = sum(shuffle_up_degree(w, n) for w in words.values())
        related = shuffle_leq
    if len(edges) != expected or len(set(edges)) != len(edges):
        out.append(f"{len(edges)} edges, closed form {expected}")
    for a, b, label in edges:
        if a not in words or b not in words:
            out.append(f"edge {a} -> {b} names an unknown node")
            continue
        u, v = words[a], words[b]
        if u == v or not related(u, v):
            out.append(f"edge {u.text} -> {v.text} does not go up")
        elif labeled and label != cover_label(u, v):
            out.append(f"edge {u.text} -> {v.text} labeled {label}, expected {cover_label(u, v)}")
    return out


def check_element_csv(text: str, m: int, n: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["word", "inversions"]:
        return ["missing header"]
    out: list[str] = []
    if len(rows) - 1 != family_size(m, n):
        out.append(f"{len(rows) - 1} rows, closed form {family_size(m, n)}")
    seen = set()
    for word_text, inv_text in rows[1:]:
        try:
            w = parse(word_text, m, n)
        except ValueError as exc:
            out.append(str(exc))
            continue
        seen.add(w.text)
        pairs = sorted(
            (bit // PAIR_STRIDE + 1, bit % PAIR_STRIDE + 1) for bit in _bits(w.inv)
        )
        if inv_text != " ".join(f"(x{s},y{t})" for s, t in pairs):
            out.append(f"row {word_text}: inversions {inv_text!r} are wrong")
    if len(seen) != len(rows) - 1:
        out.append("repeated rows")
    return out


def check_covers_json(text: str, dot_text: str, m: int, n: int) -> list[str]:
    """Cover pairs agree with the DOT edges and the closed-form count."""
    data = json.loads(text)
    _, edges = read_dot(dot_text)
    dot_pairs = sorted([int(a[1:]), int(b[1:])] for a, b, _ in edges)
    out = []
    if data.get("n") != family_size(m, n):
        out.append(f"n = {data.get('n')}, closed form {family_size(m, n)}")
    if len(data.get("covers", [])) != bubble_edges(m, n):
        out.append(f"{len(data.get('covers', []))} covers, closed form {bubble_edges(m, n)}")
    if sorted(data.get("covers", [])) != dot_pairs:
        out.append("cover list differs from the DOT edges")
    return out


def polygon_count(words, n: int) -> int:
    """Semidistributive lattices are polygonal: each pair of upper covers of
    an element spans exactly one polygon."""
    return sum(comb(up_degree(w, n), 2) for w in words)


def check_cu_report(text: str, words, m: int, n: int) -> list[str]:
    data = json.loads(text)
    out = []
    if any(data.get("violations", {}).get(f"CU{i}") for i in range(1, 6)):
        out.append("CU violations reported")
    expected = polygon_count(words, n)
    if data.get("polygons") != expected:
        out.append(f"{data.get('polygons')} polygons, closed form {expected}")
    return out


def check_galois_exports(dot_text: str, json_text: str, summary_text: str, m: int, n: int) -> list[str]:
    nodes, edges = read_dot(dot_text)
    data = json.loads(json_text)
    summary = json.loads(summary_text)
    k, arcs, size = irreducibles(m, n), galois_arcs(m, n), family_size(m, n)
    out = []
    if len(nodes) != k or len(edges) != arcs:
        out.append(f"DOT has {len(nodes)} vertices and {len(edges)} arcs, closed forms {k} and {arcs}")
    if len(data.get("vertices", [])) != k or len(data.get("arcs", [])) != arcs:
        out.append("JSON vertex or arc count differs from the closed forms")
    want = {"k": k, "arcs": arcs, "orthogonal_pairs": size, "elements": size, "m": m, "n": n}
    for key, value in want.items():
        if summary.get(key) != value:
            out.append(f"summary {key} = {summary.get(key)!r}, closed form {value!r}")
    return out


def check_triword_csv(text: str, length: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["word", "triword"]:
        return ["missing header"]
    out = []
    if len(rows) - 1 != triword_count(length):
        out.append(f"{len(rows) - 1} rows, closed form {triword_count(length)}")
    images = set()
    for word_text, tri in rows[1:]:
        try:
            w = parse(word_text, length - 1, 1)
        except ValueError as exc:
            out.append(str(exc))
            continue
        if tri != triword(w, length):
            out.append(f"row {word_text}: triword {tri}, expected {triword(w, length)}")
        images.add(tri)
    if len(images) != len(rows) - 1:
        out.append("triwords repeat")
    return out


def check_hochschild_report(text: str, length: int) -> list[str]:
    report = json.loads(text)
    entries = report.get("checks", [])
    want = {"n": length, "triwords": triword_count(length)}
    if report.get("violations") or not entries or entries[0].get("status") != "pass":
        return ["hochschild report has violations"]
    if entries[0].get("detail") != want:
        return [f"detail {entries[0].get('detail')}, closed form {want}"]
    return []


# -- big family -----------------------------------------------------------------


class FamilyOracle:
    """Up-sets, joins and meets of one family, found by search in the paper's
    order; cached by word text so repeated passes can be checked cheaply."""

    def __init__(self, texts: list[str], m: int, n: int):
        self.m, self.n = m, n
        self.texts = list(texts)
        self.words = [parse(t, m, n) for t in texts]
        self.index = {w.text: i for i, w in enumerate(self.words)}
        self.keys = [order_key(w) for w in self.words]
        self._up: dict[int, int] = {}
        self._down: dict[int, int] = {}

    def up(self, a: int) -> int:
        if a not in self._up:
            u = self.words[a]
            self._up[a] = sum(1 << i for i, w in enumerate(self.words) if leq(u, w))
        return self._up[a]

    def down(self, a: int) -> int:
        if a not in self._down:
            u = self.words[a]
            self._down[a] = sum(1 << i for i, w in enumerate(self.words) if leq(w, u))
        return self._down[a]

    def join(self, a: int, b: int) -> int | None:
        """The least common upper bound, or None if there is no least one."""
        common = self.up(a) & self.up(b)
        best = min(_bits(common), key=lambda i: self.keys[i], default=None)
        return best if best is not None and common & ~self.up(best) == 0 else None

    def meet(self, a: int, b: int) -> int | None:
        common = self.down(a) & self.down(b)
        best = max(_bits(common), key=lambda i: self.keys[i], default=None)
        return best if best is not None and common & ~self.down(best) == 0 else None
