#!/usr/bin/env python3
"""Runs each benchmark workload K times, one seed per run, and prints the
spread of every end-to-end metric: min, q1, median, q3, max and the
interquartile distance as a share of the median, with quartiles taken as
statistics.quantiles(values, n=4) gives them.

Run it from the repository root:

    python3 schedbench/steady.py --runs 10 --first-seed 1

Every workload of BENCHMARK.json runs, each run for the run_seconds
BENCHMARK.json gives. Runs go one after another, so they do not compete
for the processor.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stderr}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    print("| workload | metric | min | q1 | median | q3 | max | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|---|")
    seconds = SPEC["run_seconds"]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results, walls = [], []
        for k in range(args.runs):
            result, wall = run_once(workload, args.first_seed + k, seconds)
            results.append(result)
            walls.append(wall)
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row = [min(values), q1, med, q3, max(values)]
            cells = " | ".join(f"{v:.4g}" for v in row)
            print(f"| {workload} | {name} | {cells} | {(q3 - q1) / med:.3f} |")
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"| {workload} | failed share | {failed} | | | | | |")
        print(f"| {workload} | wall s per run | {min(walls):.1f} | | {statistics.median(walls):.1f} | | {max(walls):.1f} | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
