#!/usr/bin/env python3
"""Steadiness report for the COMET benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs `perfbench/run.py` once per seed for each workload, then prints,
for every end-to-end metric, the median of the runs, the first and
third quartiles (Python's `statistics.quantiles(values, n=4)`), and the
relative spread: (Q3 - Q1) / median. A metric whose spread exceeds a
third of its bound in BENCHMARK.json is marked `NOISY`.

It also runs each workload's first seed a second time and checks that
both runs print the same digest (the served reports or artifacts of the
seed) and the same attempted and failed counts.
Exits non-zero when a run fails, a check fails, a metric is noisy, or
a seed's digest or counts differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = next((l.split()[-1] for l in proc.stderr.splitlines()
                   if l.startswith("digest:")), None)
    return result, (digest, result["attempted"], result["failed"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for workload in names:
        values = {name: [] for name in bounds}
        digest = None
        for i in range(args.runs):
            seed = args.first_seed + i
            result, d = run_once(workload, seed, bench["run_seconds"])
            if i == 0:
                digest = d
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        _, again = run_once(workload, args.first_seed, bench["run_seconds"])
        same = digest[0] is not None and digest == again
        ok &= same
        print(f"{workload}: {args.runs} runs, seed {args.first_seed} digest and counts "
              f"{'repeat' if same else f'DIFFER ({digest} vs {again})'}")
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = ""
            if spread > limit:
                flag = "NOISY"
                ok = False
            print(f"  {name:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {limit:>8.2%} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
