#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Builds mixq_bench from source if needed, runs one workload, and prints
the result as one JSON line (the last line of stdout).

    python3 mixq_bench/run.py --workload small_hot --seed 3 --seconds 10 --trace 0

Run it from the repository root. The build lives in .bench_build/ under the
current directory; build logs and the binary's table go to stderr. With
--trace 0 the line carries every end-to-end metric, with --trace 1 every
per-layer metric:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

Exit status: 0 when the run completed and every reply was correct, 1 when the
run finished but outputs were wrong (the line still says so), 2 when the
build or the run failed and no result exists.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mixq_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default: .bench_build/results/...)")
    args = ap.parse_args()

    if not build():
        return 2
    out = args.out or os.path.join(
        BUILD_DIR, "results",
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD_DIR, "mixq_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: mixq_bench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    if not os.path.exists(out):
        print("run.py: mixq_bench exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 2
    with open(out) as f:
        result = json.load(f)
    line = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["per_layer" if args.trace else "end_to_end"],
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
