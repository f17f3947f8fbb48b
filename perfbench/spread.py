"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload text-io ...] [--label set1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.  The raw results go to perfbench/out/spread_<label>.json.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=time.perf_counter() - start, passes=proc.stderr.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(workload, seed, round(result["run_s"], 1), result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)

    summary = {}
    for workload, results in runs.items():
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            stats = summarize(values)
            stats["of_bound"] = stats["spread"] / bounds[metric]
            summary[f"{workload} {metric}"] = stats
            print(f"{workload:13s} {metric:12s} median {stats['median']:.4f} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                  f"spread {stats['spread']:.4f} ({stats['of_bound']:.2f} of bound)")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:13s} failed shares {sorted(shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread_{args.label}.json").write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
