"""One reference figure: ``check --parallel`` against serial ``check``.

    python3 perfbench/parallel_reference.py [--rounds 2]

Runs ``check m n --suite all`` on the check-report families, serial and
with ``--parallel``, alternating which goes first, and prints the wall
times and the gain.  The pool is the program's default
(``ProcessPoolExecutor()``, one worker per CPU); the script refuses to run
if that would exceed the CPUs this process may use.  The parallel report
must equal the serial one.  This is a reference figure, not a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import run  # sets the one-thread numpy environment and finds src/


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()
    usable = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > usable:
        print(f"default pool of {os.cpu_count()} exceeds the {usable} usable CPUs", file=sys.stderr)
        return 2
    run.import_program()
    import workloads

    times: dict[str, list[float]] = {"serial": [], "parallel": []}
    for k in range(args.rounds):
        order = ("serial", "parallel") if k % 2 == 0 else ("parallel", "serial")
        reports = {}
        for mode in order:
            start = time.perf_counter()
            outs = []
            for m, n in workloads.CHECK_FAMILIES:
                argv = ["check", str(m), str(n), "--suite", "all"]
                result = workloads.run_cli(argv + (["--parallel"] if mode == "parallel" else []))
                if result.rc != 0:
                    print(f"{mode} check {m} {n} exited {result.rc}: {result.err}", file=sys.stderr)
                    return 1
                outs.append(result.out)
            times[mode].append(time.perf_counter() - start)
            reports[mode] = outs
        if reports["serial"] != reports["parallel"]:
            print("parallel report differs from the serial one", file=sys.stderr)
            return 1
    serial, parallel = (statistics.median(times[m]) for m in ("serial", "parallel"))
    print(json.dumps({
        "families": workloads.CHECK_FAMILIES,
        "workers": os.cpu_count(),
        "serial_s": times["serial"],
        "parallel_s": times["parallel"],
        "gain": 1 - parallel / serial,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
