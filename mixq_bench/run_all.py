#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Runs every workload of BENCHMARK.json for a range of seeds, each seed
untraced and then traced, and keeps every result file in one directory.

    python3 mixq_bench/run_all.py OUT_DIR [--seeds 1-10] [--no-trace]

Run it from the repository root. Each run goes through run.py (which builds
.bench_build/mixq_bench on first use) and writes
OUT_DIR/<workload>-seed<s>-trace<0|1>.json; `git describe --always --dirty`
is stamped into every result's context as "revision". Seeds are the outer
loop so slow drift of the machine spreads over all workloads. Compare two
such directories with bench_compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=HERE,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out_dir, exist_ok=True)
    env = dict(os.environ, MIXQ_BENCH_REVISION=revision())
    failures = 0
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            for trace in (0,) if args.no_trace else (0, 1):
                name = "%s-seed%d-trace%d.json" % (wl, seed, trace)
                out = os.path.join(args.out_dir, name)
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--out", out]
                proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
                print("%s seed %d trace %d: exit %d %s" % (wl, seed, trace,
                                                          proc.returncode, last[0][:160]),
                      flush=True)
                failures += proc.returncode != 0
    print("results in %s (%s)" % (args.out_dir, env["MIXQ_BENCH_REVISION"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
