"""Batch front-end: generate lattices, run check suites, export artifacts.

Subcommands: generate, check, galois, hochschild, label.  Reports are JSON
with a versioned schema and deterministic ordering; exit code 0 means the
violation list is empty.  Output files land in --outdir or, if unset, in
$BUBBLELATTICE_OUTDIR (default: current directory).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from .bubble import DEFAULT_CAP, build_bubble_lattice, build_shuffle_poset
from .checks import SUITE_NAMES, SUITES, check_hochschild, error_result, run_suite
from .errors import BubbleLatticeError, CapExceeded, OutOfAlphabet
from .exports import element_table_csv, hasse_dot, sigma_table_csv
from .galois import (
    bubble_galois_explicit,
    galois_graph,
    max_orthogonal_pairs,
    order_irreducibles,
)
from .labeling import build_label_poset, edge_labels, verify_cu_labeling

SCHEMA_VERSION = 1
CAP_HELP = f"max element count (default {DEFAULT_CAP})"


def _outdir(args) -> Path:
    if args.outdir:
        path = Path(args.outdir)
    else:
        path = Path(os.environ.get("BUBBLELATTICE_OUTDIR", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    m, n = args.m, args.n
    family = build_bubble_lattice(m, n, cap=args.cap)
    outdir = _outdir(args)
    wrote = []
    if args.csv or not (args.dot or args.json):
        path = outdir / f"bubble_{m}_{n}.csv"
        path.write_text(element_table_csv(family))
        wrote.append(str(path))
    if args.dot:
        bub = outdir / f"bubble_{m}_{n}.dot"
        bub.write_text(hasse_dot(family, f"bubble_{m}_{n}"))
        shuffle = build_shuffle_poset(m, n, cap=args.cap)
        shuf = outdir / f"shuffle_{m}_{n}.dot"
        shuf.write_text(hasse_dot(shuffle, f"shuffle_{m}_{n}"))
        wrote.extend([str(bub), str(shuf)])
    if args.json:
        path = outdir / f"bubble_{m}_{n}_covers.json"
        path.write_text(family.poset.covers_json() + "\n")
        wrote.append(str(path))
    for path in wrote:
        print(path)
    return 0


def build_check_report(m, n, suites, cap=None, timings=False) -> dict:
    """Build (m, n) once and run every suite on it.

    A family that fails to build fails every check; a cap refusal or a bad
    alphabet size still raises.
    """
    started = time.monotonic()
    family = broken = None
    try:
        family = build_bubble_lattice(m, n, cap=cap)
    except (CapExceeded, OutOfAlphabet):
        raise
    except Exception as exc:
        import traceback

        traceback.print_exc()
        broken = exc
    timing = {"build": round(time.monotonic() - started, 3)}
    checks = []
    for name in suites:
        started = time.monotonic()
        if broken is None:
            results = run_suite(name, family)
        else:
            results = [error_result(check_id, broken) for check_id, _ in SUITES[name]]
        timing[name] = round(time.monotonic() - started, 3)
        checks.extend({"id": r.id, "status": r.status, "detail": r.detail} for r in results)
    report = {
        "schema": SCHEMA_VERSION,
        "m": m,
        "n": n,
        "suites": list(suites),
        "checks": checks,
        "violations": [c["id"] for c in checks if c["status"] == "fail"],
    }
    if timings:
        # the process's peak so far; ru_maxrss is in KiB on Linux
        timing["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        report["timings"] = timing
    return report


def suite_list(text: str) -> list[str]:
    """The ``--suite`` argument of ``check`` and of the sweep: ``all``, or a
    comma-separated list that names each suite at most once."""
    if text == "all":
        return list(SUITE_NAMES)
    suites = [s.strip() for s in text.split(",")]
    if any(s not in SUITE_NAMES for s in suites) or len(set(suites)) < len(suites):
        raise argparse.ArgumentTypeError(f"bad suite list {text!r}: name each of {SUITE_NAMES} at most once")
    return suites


def cmd_check(args) -> int:
    m, n = args.m, args.n
    report = build_check_report(m, n, args.suite, cap=args.cap, timings=args.timings)
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.json:
        path = _outdir(args) / f"check_{m}_{n}.json"
        path.write_text(text + "\n")
    return 0 if not report["violations"] else 1


def cmd_galois(args) -> int:
    m, n = args.m, args.n
    family = build_bubble_lattice(m, n, cap=args.cap)
    outdir = _outdir(args)
    ordering = order_irreducibles(family.poset)
    generic = galois_graph(family.poset, ordering)
    explicit = bubble_galois_explicit(m, n)
    wrote = []
    if args.dot:
        path = outdir / f"galois_{m}_{n}.dot"
        path.write_text(explicit.to_dot(f"galois_{m}_{n}"))
        wrote.append(str(path))
    if args.json:
        path = outdir / f"galois_{m}_{n}.json"
        path.write_text(explicit.adjacency_json() + "\n")
        wrote.append(str(path))
    summary = {
        "schema": SCHEMA_VERSION,
        "m": m,
        "n": n,
        "k": ordering.k,
        "arcs": len(explicit.arcs),
        "orthogonal_pairs": len(max_orthogonal_pairs(generic)),
        "elements": len(family.words),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    for path in wrote:
        print(path, file=sys.stderr)
    return 0


def cmd_hochschild(args) -> int:
    n = args.n
    family = build_bubble_lattice(n - 1, 1, cap=args.cap)
    result = check_hochschild(family)
    outdir = _outdir(args)
    if args.csv:
        path = outdir / f"triwords_{n}.csv"
        path.write_text(sigma_table_csv(family))
        print(path, file=sys.stderr)
    report = {
        "schema": SCHEMA_VERSION,
        "n": n,
        "checks": [{"id": result.id, "status": result.status, "detail": result.detail}],
        "violations": [] if result.ok else [result.id],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if result.ok else 1


def cmd_label(args) -> int:
    m, n = args.m, args.n
    family = build_bubble_lattice(m, n, cap=args.cap)
    outdir = _outdir(args)
    labels = edge_labels(family)
    S = build_label_poset(m, n)
    report = verify_cu_labeling(family.poset, labels, S.leq)
    wrote = []
    if args.dot:
        path = outdir / f"bubble_{m}_{n}_labeled.dot"
        path.write_text(hasse_dot(family, f"bubble_{m}_{n}", labeled=True))
        wrote.append(str(path))
    if args.json:
        path = outdir / f"cu_report_{m}_{n}.json"
        path.write_text(report.to_json() + "\n")
        wrote.append(str(path))
    print(report.to_json())
    for path in wrote:
        print(path, file=sys.stderr)
    return 0 if report.ok else 1


def _add_common(parser, *exports) -> None:
    """The alphabet sizes, --cap, --outdir and one flag per export format."""
    parser.add_argument("m", type=int, help="size of the x-alphabet")
    parser.add_argument("n", type=int, help="size of the y-alphabet")
    parser.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    parser.add_argument("--outdir", default=None, help="output directory (or $BUBBLELATTICE_OUTDIR)")
    for kind in exports:
        parser.add_argument(f"--{kind}", action="store_true", help=f"write {kind.upper()} files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bubblelattice",
        description="Build and verify bubble lattices and shuffle posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="element table and Hasse diagrams")
    _add_common(p, "dot", "csv", "json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="run verification suites")
    _add_common(p, "json")
    p.add_argument("--suite", default="all", type=suite_list, help=f"comma-separated subset of {SUITE_NAMES}")
    p.add_argument("--timings", action="store_true", help="include per-suite timings and the peak RSS in the report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("galois", help="Galois graphs and their reconstruction")
    _add_common(p, "dot", "json")
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("hochschild", help="triword encoding of single-y lattices")
    p.add_argument("n", type=int, help="tuple length")
    p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    p.add_argument("--outdir", default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_hochschild)

    p = sub.add_parser("label", help="labeled diagram and CU report")
    _add_common(p, "dot", "json")
    p.set_defaults(func=cmd_label)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except BubbleLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
