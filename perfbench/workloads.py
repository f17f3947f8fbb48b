"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A workload object is built from a seed (that is the input generation, part
of set-up).  ``run`` is one timed pass: it starts from text and alphabet
sizes only, so a pass shares no program state with the pass before it.
``check`` compares the pass's outputs with ``oracle`` and records one
attempted operation per check of one family, stage of a big family, word
pair or export command.

Program functions are looked up on their modules at call time, so the
traced run sees the wrappers that ``spans.install`` put there.
"""

from __future__ import annotations

import io
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from bubblelattice import bubble, cli, galois, posets, words

import oracle

CHECK_FAMILIES = ((3, 3), (5, 1))
BIG_FAMILY = (4, 4)
EXPORT_FAMILIES = ((3, 3), (4, 2))
TRIWORD_LENGTH = 8
PAIRS_PER_PASS = 1000
ALPHABET_SIZES = range(6, 17)
SAMPLE_PAIRS = 48
SAMPLE_TRIPLES = 16
SAMPLE_ELEMENTS = 16
SAMPLE_POLYGONS = 16


@dataclass
class Outcome:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed with a wrong output, rather than by raising
    messages: list[str] = field(default_factory=list)

    def record(self, where: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.wrong += 1
            self.messages.extend(f"{where}: {msg}" for msg in failures[:3])

    def crashed(self, where: str, error: str, operations: int = 1) -> None:
        self.attempted += operations
        self.failed += operations
        self.messages.append(f"{where}: raised {error}")


@dataclass
class CliResult:
    rc: Optional[int]  # None when the command raised
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash fails this operation; the run goes on
        return CliResult(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(rc, out.getvalue(), err.getvalue())


def _word_text(letters) -> str:
    return ".".join(f"{tag}{i}" for tag, i in letters) or "-"


# -- check-report ------------------------------------------------------------------


def check_command_report(argv: list[str], result: CliResult, outcome: Outcome) -> None:
    m, n = int(argv[1]), int(argv[2])
    where = f"check {m} {n}"
    if result.rc is None:
        outcome.crashed(where, result.err, len(oracle.EXPECTED_CHECKS))
        return
    for cid, failures in oracle.check_report(result.out, result.rc, m, n).items():
        outcome.record(f"{where} {cid}", failures)


class CheckReport:
    """The serial ``check m n --suite all`` report on a few families."""

    name = "check-report"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        families = list(CHECK_FAMILIES)
        rng.shuffle(families)  # the seed only orders the families
        self.commands = [["check", str(m), str(n), "--suite", "all"] for m, n in families]

    def run(self):
        return [(argv, run_cli(argv)) for argv in self.commands]

    def check(self, raw, outcome: Outcome) -> None:
        for argv, result in raw:
            check_command_report(argv, result, outcome)


# -- big-family --------------------------------------------------------------------


class BigFamily:
    """Build one family of about two thousand elements and compute what the
    CLI needs beyond words: closure, tables, irreducibles and extremality,
    kappa and the crown, polygonal intervals and the Galois ordering."""

    name = "big-family"
    stages = ("build", "tables", "irreducibles", "crown", "polygons", "galois")

    def __init__(self, seed: int, workdir: Path, family: tuple[int, int] = BIG_FAMILY):
        rng = random.Random(seed)
        self.m, self.n = family
        size = oracle.family_size(self.m, self.n)
        self.elements = rng.sample(range(size), SAMPLE_ELEMENTS)
        self.pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(SAMPLE_PAIRS)]
        self.triples = [tuple(rng.randrange(size) for _ in range(3)) for _ in range(SAMPLE_TRIPLES)]
        self.polygon_picks = [rng.random() for _ in range(SAMPLE_POLYGONS)]
        self.family: Optional[oracle.FamilyOracle] = None

    def run(self):
        out: dict = {}
        try:
            family = bubble.build_bubble_lattice(self.m, self.n)
            out["build"] = family
            P = family.poset
            out["tables"] = posets.lattice_tables(P)
            out["irreducibles"] = (
                posets.join_irreducibles(P),
                posets.meet_irreducibles(P),
                posets.is_extremal(P),
                P.length(),
            )
            out["crown"] = posets.find_crown(P)
            out["polygons"] = posets.polygonal_intervals(P)
            ordering = galois.order_irreducibles(P)
            out["galois"] = (ordering, galois.galois_graph(P, ordering))
        except Exception as exc:  # the stages after a crash fail with it
            out["error"] = f"{type(exc).__name__}: {exc}"
        return out

    def _oracle(self, texts: list[str]) -> oracle.FamilyOracle:
        if self.family is None or self.family.texts != texts:
            self.family = oracle.FamilyOracle(texts, self.m, self.n)
        return self.family

    def check(self, raw, outcome: Outcome) -> None:
        fo = problem = None
        if "build" in raw:
            P = raw["build"].poset
            edges = P.edges()
            try:
                fo = self._oracle([str(w) for w in raw["build"].words])
            except ValueError as exc:
                problem = f"family holds a non-word: {exc}"
        for stage in self.stages:
            where = f"{self.m},{self.n} {stage}"
            if stage not in raw:
                outcome.crashed(where, raw.get("error", "no result"))
            elif fo is None:
                outcome.record(where, [problem])
            else:
                check = getattr(self, f"_check_{stage}")
                outcome.record(where, check(raw[stage], P, fo, edges))

    def _check_build(self, family, P, fo, edges) -> list[str]:
        m, n = self.m, self.n
        out = []
        size = oracle.family_size(m, n)
        if P.n != size or len(set(fo.texts)) != size:
            out.append(f"{P.n} elements, closed form {size}")
            return out
        if len(edges) != oracle.bubble_edges(m, n):
            out.append(f"{len(edges)} edges, closed form {oracle.bubble_edges(m, n)}")
        for a, b in edges:
            if not oracle.leq(fo.words[a], fo.words[b]) or a == b:
                out.append(f"edge {fo.texts[a]} -> {fo.texts[b]} does not go up")
                break
        for a in self.elements:
            if P.up[a] != fo.up(a):
                out.append(f"closure: up-set of {fo.texts[a]} differs from the order")
        return out

    def _check_tables(self, tables, P, fo, edges) -> list[str]:
        join, meet = tables
        out = []
        for a, b in self.pairs:
            if int(join[a, b]) != fo.join(a, b) or int(meet[a, b]) != fo.meet(a, b):
                out.append(f"join/meet of {fo.texts[a]}, {fo.texts[b]} differ from the search")
            if join[a, b] != join[b, a] or meet[a, b] != meet[b, a] or join[a, a] != a or meet[a, a] != a:
                out.append(f"commutativity or idempotence fails at {a}, {b}")
            if join[a, meet[a, b]] != a or meet[a, join[a, b]] != a:
                out.append(f"absorption fails at {a}, {b}")
        for a, b, c in self.triples:
            if join[join[a, b], c] != join[a, join[b, c]] or meet[meet[a, b], c] != meet[a, meet[b, c]]:
                out.append(f"associativity fails at {a}, {b}, {c}")
        return out

    def _check_irreducibles(self, result, P, fo, edges) -> list[str]:
        jirr, mirr, extremal, length = result
        k = oracle.irreducibles(self.m, self.n)
        if (len(jirr), len(mirr), extremal, length) != (k, k, True, k):
            return [f"irreducibles {len(jirr)}/{len(mirr)}, length {length}, extremal {extremal}; closed form {k}"]
        return []

    def _check_crown(self, witness, P, fo, edges) -> list[str]:
        out = []
        everything = (1 << P.n) - 1
        if len(witness.atoms) != self.m + self.n or len(set(witness.kappas)) != len(witness.kappas):
            out.append(f"{len(witness.atoms)} atoms, closed form {self.m + self.n}")
        for i, a in enumerate(witness.atoms):
            not_above = everything & ~fo.up(a)
            kappa = witness.kappas[i]
            if not (not_above >> kappa & 1) or fo.down(kappa) & not_above != not_above:
                out.append(f"kappa({fo.texts[a]}) = {fo.texts[kappa]} is not the greatest element not above it")
            for j, b in enumerate(witness.atoms):
                if oracle.leq(fo.words[b], fo.words[kappa]) != (i != j):
                    out.append(f"crown pattern broken at {fo.texts[b]}, {fo.texts[kappa]}")
        return out

    def _check_polygons(self, polygons, P, fo, edges) -> list[str]:
        out = []
        expected = oracle.polygon_count(fo.words, self.n)
        if len(polygons) != expected:
            out.append(f"{len(polygons)} polygons, closed form {expected}")
        if not polygons:
            return out
        edge_set = set(edges)
        for pick in self.polygon_picks:
            poly = polygons[int(pick * len(polygons))]
            c1, c2 = poly.chains
            ok = (
                c1[0] == c2[0] == poly.bottom
                and c1[-1] == c2[-1] == poly.top
                and len(c1) > 2
                and len(c2) > 2
                and not set(c1[1:-1]) & set(c2[1:-1])
                and all(e in edge_set for chain in (c1, c2) for e in zip(chain, chain[1:]))
                and fo.join(c1[1], c2[1]) == poly.top
            )
            if not ok:
                out.append(f"polygon [{fo.texts[poly.bottom]}, {fo.texts[poly.top]}] is not two chains of covers")
        return out

    def _check_galois(self, result, P, fo, edges) -> list[str]:
        ordering, graph = result
        k = oracle.irreducibles(self.m, self.n)
        indeg, outdeg = {}, {}
        for a, b in edges:
            outdeg[a] = outdeg.get(a, 0) + 1
            indeg[b] = indeg.get(b, 0) + 1
        edge_set = set(edges)
        out = []
        chain = ordering.chain
        if len(chain) != k + 1 or not all(e in edge_set for e in zip(chain, chain[1:])):
            out.append("the ordering's chain is not a maximum chain of covers")
        if len(set(ordering.jseq)) != k or any(indeg.get(j) != 1 for j in ordering.jseq):
            out.append("the ordered join-irreducibles are not k distinct join-irreducibles")
        if len(set(ordering.mseq)) != k or any(outdeg.get(j) != 1 for j in ordering.mseq):
            out.append("the ordered meet-irreducibles are not k distinct meet-irreducibles")
        if len(graph.arcs) != oracle.galois_arcs(self.m, self.n):
            out.append(f"{len(graph.arcs)} Galois arcs, closed form {oracle.galois_arcs(self.m, self.n)}")
        return out


# -- text-io -----------------------------------------------------------------------


def _interleave(rng: random.Random, xs: list[int], ys: list[int]) -> list[tuple[str, int]]:
    slots = sorted(rng.sample(range(len(xs) + len(ys)), len(xs)))
    xi, yi, out = iter(xs), iter(ys), []
    for pos in range(len(xs) + len(ys)):
        out.append(("x", next(xi)) if slots and slots[0] == pos else ("y", next(yi)))
        if slots and slots[0] == pos:
            slots.pop(0)
    return out


def _climb(rng: random.Random, letters: list[tuple[str, int]], n: int) -> list[tuple[str, int]]:
    """A word above the given one: delete one x, insert half the absent y's,
    then swap two adjacent x-y pairs; each step goes up in the bubble order."""
    seq = list(letters)
    xs = [k for k, (tag, _) in enumerate(seq) if tag == "x"]
    del seq[rng.choice(xs)]
    present = {i for tag, i in seq if tag == "y"}
    absent = [t for t in range(1, n + 1) if t not in present]
    for t in sorted(rng.sample(absent, (len(absent) + 1) // 2)):
        ypos = [k for k, (tag, i) in enumerate(seq) if tag == "y"]
        lo = max([k for k in ypos if seq[k][1] < t], default=-1)
        hi = min([k for k in ypos if seq[k][1] > t], default=len(seq))
        seq.insert(rng.randint(lo + 1, hi), ("y", t))
    for _ in range(2):
        swaps = [k for k in range(len(seq) - 1) if seq[k][0] == "x" and seq[k + 1][0] == "y"]
        if swaps:
            k = rng.choice(swaps)
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
    return seq


def make_pair(rng: random.Random, i: int) -> tuple[str, str, int, int]:
    """Pair i of the stream.

    The alphabet sizes cycle through ALPHABET_SIZES and the kind of pair
    cycles with i, so the size mix and the work per pass do not depend on
    the seed; the seed picks the letters and their order.  Kinds: 0 gives
    two words with different x-supports of one size (incomparable), 1 a
    word and one above it, 2 two words with the same supports.
    """
    sizes = list(ALPHABET_SIZES)
    m = sizes[i % len(sizes)]
    n = sizes[(i // len(sizes)) % len(sizes)]
    a, b = (m + 1) // 2, (n + 1) // 2
    xs = sorted(rng.sample(range(1, m + 1), a))
    ys = sorted(rng.sample(range(1, n + 1), b))
    u = _interleave(rng, xs, ys)
    kind = i % 3
    if kind == 0:
        xs2 = xs
        while xs2 == xs:
            xs2 = sorted(rng.sample(range(1, m + 1), a))
        v = _interleave(rng, xs2, sorted(rng.sample(range(1, n + 1), b)))
    elif kind == 1:
        v = _climb(rng, u, n)
    else:
        v = _interleave(rng, xs, ys)
    return _word_text(u), _word_text(v), m, n


def export_commands(families, triword_length: int) -> list[list[str]]:
    commands = []
    for m, n in families:
        commands.append(["generate", str(m), str(n), "--csv", "--dot", "--json"])
        commands.append(["label", str(m), str(n), "--dot", "--json"])
        commands.append(["galois", str(m), str(n), "--dot", "--json"])
    commands.append(["hochschild", str(triword_length), "--csv"])
    return commands


def check_export(argv: list[str], result: CliResult, outdir: Path) -> list[str]:
    """Files and printed output of one export command."""
    if result.rc != 0:
        return [f"exit code {result.rc}: {result.err.strip()[:200]}"]
    command = argv[0]
    try:
        if command == "hochschild":
            length = int(argv[1])
            return oracle.check_triword_csv(
                (outdir / f"triwords_{length}.csv").read_text(), length
            ) + oracle.check_hochschild_report(result.out, length)
        m, n = int(argv[1]), int(argv[2])
        stem = f"{m}_{n}"
        if command == "generate":
            dot = (outdir / f"bubble_{stem}.dot").read_text()
            return (
                oracle.check_element_csv((outdir / f"bubble_{stem}.csv").read_text(), m, n)
                + oracle.check_family_dot(dot, m, n, "bubble")
                + oracle.check_family_dot((outdir / f"shuffle_{stem}.dot").read_text(), m, n, "shuffle")
                + oracle.check_covers_json((outdir / f"bubble_{stem}_covers.json").read_text(), dot, m, n)
            )
        if command == "label":
            dot = (outdir / f"bubble_{stem}_labeled.dot").read_text()
            nodes, _ = oracle.read_dot(dot)
            family = [oracle.parse(text, m, n) for text in nodes.values()]
            report = (outdir / f"cu_report_{stem}.json").read_text()
            return (
                oracle.check_family_dot(dot, m, n, "bubble", labeled=True)
                + oracle.check_cu_report(report, family, m, n)
                + ([] if report.strip() == result.out.strip() else ["printed CU report differs from the file"])
            )
        if command == "galois":
            return oracle.check_galois_exports(
                (outdir / f"galois_{stem}.dot").read_text(),
                (outdir / f"galois_{stem}.json").read_text(),
                result.out,
                m,
                n,
            )
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"unknown command {command}"]


class TextIO:
    """Dotted-word pairs over large alphabets, then file exports."""

    name = "text-io"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.pairs = [make_pair(rng, i) for i in range(PAIRS_PER_PASS)]
        self.commands = export_commands(EXPORT_FAMILIES, TRIWORD_LENGTH)
        self.workdir = workdir

    def run(self):
        printed = []
        for u_text, v_text, m, n in self.pairs:
            try:
                u = words.parse_word(u_text, m, n)
                v = words.parse_word(v_text, m, n)
                j = bubble.join(u, v)
                mt = bubble.meet(u, v)
                printed.append(
                    (
                        str(j),
                        str(mt),
                        bubble.leq_bubble(u, v),
                        bubble.leq_bubble(v, u),
                        str(bubble.join(u, mt)),
                        str(bubble.meet(u, j)),
                    )
                )
            except Exception as exc:  # a crash fails this pair only
                printed.append(f"{type(exc).__name__}: {exc}")
        outdir = Path(tempfile.mkdtemp(prefix="exports-", dir=self.workdir))
        exported = [(argv, run_cli(argv + ["--outdir", str(outdir)])) for argv in self.commands]
        return printed, outdir, exported

    def check(self, raw, outcome: Outcome) -> None:
        printed, outdir, exported = raw
        for (u_text, v_text, m, n), result in zip(self.pairs, printed):
            where = f"pair {u_text} {v_text}"
            if isinstance(result, str):
                outcome.crashed(where, result)
            else:
                outcome.record(where, oracle.check_pair(u_text, v_text, m, n, *result))
        for argv, result in exported:
            outcome.record(" ".join(argv), check_export(argv, result, outdir))
        shutil.rmtree(outdir, ignore_errors=True)


# -- probe for traced runs ------------------------------------------------------------


class LayerProbe:
    """A small fixed pass through every layer on the (2,1) family.

    Traced runs add it to each pass, so that every per-layer metric is a
    measurement in every traced run, including layers that the workload
    itself does not reach.  Untraced runs never run it.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.commands = [["check", "2", "1", "--suite", "all"]] + export_commands([(2, 1)], 3)

    def run(self):
        family = bubble.build_bubble_lattice(2, 1)
        texts = [str(w) for w in family.words]
        round_trip = [str(words.parse_word(t, 2, 1)) for t in texts]
        claims = (posets.is_semidistributive(family.poset), posets.is_trim(family.poset))
        outdir = Path(tempfile.mkdtemp(prefix="probe-", dir=self.workdir))
        results = [(argv, run_cli(argv + ["--outdir", str(outdir)])) for argv in self.commands]
        return texts, round_trip, claims, outdir, results

    def check(self, raw, outcome: Outcome) -> None:
        texts, round_trip, claims, outdir, results = raw
        outcome.record("probe parse", [] if texts == round_trip else ["parse/print round trip differs"])
        outcome.record("probe claims", [] if claims == (True, True) else [f"semidistributive, trim = {claims}"])
        for argv, result in results:
            if argv[0] == "check":
                check_command_report(argv[:5], result, outcome)
            else:
                outcome.record("probe " + " ".join(argv), check_export(argv, result, outdir))
        shutil.rmtree(outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CheckReport, BigFamily, TextIO)}
