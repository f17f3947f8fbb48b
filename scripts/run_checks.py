#!/usr/bin/env python3
"""Sweep the verification suites over every family up to a size bound.

Usage: python scripts/run_checks.py [--max-total 5] [--suite all]
Prints one line per (m, n) and exits nonzero if anything fails.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bubblelattice.cli import build_check_report, suite_list


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-total", type=int, default=5, help="largest m+n to sweep")
    parser.add_argument("--suite", default="all", type=suite_list)
    args = parser.parse_args()

    failures = 0
    for total in range(args.max_total + 1):
        for m in range(total + 1):
            n = total - m
            started = time.monotonic()
            bad = build_check_report(m, n, args.suite)["violations"]
            elapsed = time.monotonic() - started
            status = "ok" if not bad else f"FAIL {bad}"
            print(f"({m},{n})  {elapsed:6.2f}s  {status}")
            failures += len(bad)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
