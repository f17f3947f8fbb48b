"""Benchmark for bubblelattice: one workload per invocation, in one process.

    python3 perfbench/run.py --workload check-report --seed 1 --seconds 35 --trace 0

The run builds nothing: it imports ``bubblelattice`` from ``src/`` of the
checkout that holds this file, and exits with code 2 if that copy is absent.
Numpy is held to one thread and ``check`` runs serially.

Untraced (``--trace 0``): set-up is timed in SETUP_REPEATS fresh processes
(start, imports, input generation; median reported as ``setup_s``), then
whole passes of the workload run until ``--seconds`` have gone by.
``wall_s`` is the median pass time and ``peak_rss_mb`` the peak resident
memory of this process.  Traced (``--trace 1``): every public function of
the program is wrapped (see spans.py), each pass also runs the small layer
probe, and the per-layer metrics are medians over passes.  The spans are
written to perfbench/out/trace_<workload>.npz.

Every output is checked (see oracle.py).  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("check-report", "big-family", "text-io")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import and generate inputs, then exit"
    )
    return parser.parse_args(argv)


def import_program():
    """Import bubblelattice from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bubblelattice
    except ImportError as exc:
        print(f"cannot import bubblelattice from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(bubblelattice.__file__).resolve().is_relative_to(src):
        print(f"bubblelattice comes from {bubblelattice.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def time_setup(args) -> float:
    """Seconds from starting a fresh process to its exit after set-up."""
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed, OUT)
        return 0

    setups = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
    tracer = probe = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        probe = workloads.LayerProbe(OUT)
    workload = workload_cls(args.seed, OUT)
    outcome = workloads.Outcome()
    walls: list[float] = []
    layers: list[dict] = []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        gc.collect()
        if tracer:
            first = tracer.mark()
            tracer.enabled = True
        start = time.perf_counter()
        raw = workload.run()
        walls.append(time.perf_counter() - start)
        if tracer:
            probed = probe.run()
            tracer.enabled = False
            layers.append(tracer.metrics(first, len(tracer.name)))
            probe.check(probed, outcome)
        workload.check(raw, outcome)
        del raw

    for message in outcome.messages[:20]:
        print(message, file=sys.stderr)
    if tracer:
        metrics = {}
        for name, (kind, _) in spans.METRICS.items():
            values = [layer[name] for layer in layers]
            if kind in ("calls", "count") and len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = {"value": statistics.median(values), "unit": spans.UNITS[kind]}
        tracer.save(OUT / f"trace_{args.workload}.npz")
        print(f"traced passes: {len(walls)}, median pass wall_s {statistics.median(walls)}", file=sys.stderr)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
        }
        print(f"passes: {len(walls)}, pass walls {walls}, setups {setups}", file=sys.stderr)
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
