#!/usr/bin/env python3
"""Build and run the COMET end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload durable-journal --seed 1 --seconds 40 --trace 0

Builds the `comet-perfbench` package (perfbench/Cargo.toml) in release
mode against the repository's crates, runs one workload and relays its
output. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Build output and
diagnostics go to standard error. Journals written during the run are
kept under the build directory and removed when the run ends.

The build directory is `$CARGO_TARGET_DIR`, or `.bench_build` in the
repository root when that is unset. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("refine-large", "durable-journal")
# A run measures for --seconds and then recovers and checks; anything
# far past that is a hang.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if os.path.isdir(os.path.join(root, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if head.returncode == 0:
            env["COMET_BENCH_COMMIT"] = head.stdout.strip()

    data = os.path.join(target, "perfbench-data", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(target, "release", "comet-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--data", data]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if run.returncode != 0 or not run.stdout.strip():
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
