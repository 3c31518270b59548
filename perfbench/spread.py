#!/usr/bin/env python3
"""Runs workloads on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload read_cold --seeds 10

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread under a third of
its bound is steady; setup_s is reported but not held to its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def relative_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result["metrics"], wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        runs, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, wall = run_once(workload, seed, seconds, 0)
            runs.append(metrics)
            walls.append(wall)
        print(f"== {workload}: {len(runs)} seeds, run wall "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            spread = relative_spread(values)
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"  {name:24s} median {statistics.median(values):12.4f} "
                  f"spread {spread:6.3f} bound {bound:.2f} "
                  f"{'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in values))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
