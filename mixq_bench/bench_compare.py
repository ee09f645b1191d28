#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Compares two sets of mixq_bench result files against BENCHMARK.json.

    python3 mixq_bench/bench_compare.py PARENT_DIR CHANGE_DIR
    python3 mixq_bench/bench_compare.py --agreement SET_A SET_B
    python3 mixq_bench/bench_compare.py --self-test

Each directory holds the JSON files mixq_bench writes with --out (run_all.py
and run.py produce them). Untraced runs carry the end-to-end metrics; traced
runs are used only for the tracing-overhead line.

For every (end-to-end metric, workload) pair the verdict is, in order:
  unresolved  either side's spread (quartile distance over median) exceeds
              the metric's bound, unless every change run reads better than
              every parent run;
  worse       the change median is worse than the parent median by more than
              the bound;
  better      the change wins at least 9/10 of the pairs (runs paired by
              seed, ties count for neither) and the medians differ by more
              than the parent's quartile distance;
  unchanged   otherwise.
A gain does not count when a workload's failure share (failed / attempted)
rose; a run whose outputs were wrong fails the comparison outright.

--agreement treats both sets as runs of the same commit: it passes only when
every pair is unchanged. Exit status is 0 when nothing is worse, unresolved,
or incorrect (and, with --agreement, nothing is better either).
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
WIN_RATE = 0.9


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, bound, better):
    """parent/change: {seed: value}. Returns (verdict, details dict)."""
    lower = better == "lower"
    p = [parent[s] for s in sorted(parent)]
    c = [change[s] for s in sorted(change)]
    p_q1, p_med, p_q3 = quartiles(p)
    _, c_med, _ = quartiles(c)
    improves = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    common = sorted(set(parent) & set(change))
    pairs = ([(parent[s], change[s]) for s in common] if common else
             list(zip(p, c)))
    wins = sum(1 for pv, cv in pairs if improves(cv, pv))
    win_rate = wins / len(pairs) if pairs else 0.0
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med)
    all_better = all(improves(cv, pv) for cv in c for pv in p)
    detail = {"parent": (p_q1, p_med, p_q3), "change": quartiles(c),
              "delta": (c_med - p_med) / abs(p_med),
              "spread": max(spread(p), spread(c)), "win_rate": win_rate}
    if detail["spread"] > bound and not all_better:
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    if (win_rate >= WIN_RATE and improves(c_med, p_med)
            and abs(c_med - p_med) > (p_q3 - p_q1)):
        return "better", detail
    return "unchanged", detail


def load_set(directory):
    """Returns {workload: {"e2e": {metric: {seed: v}}, "traced": {...},
    "attempted": n, "failed": n, "incorrect": [files], "revisions": {str}}}."""
    out = {}
    files = sorted(glob.glob(os.path.join(directory, "*.json")))
    for path in files:
        with open(path) as f:
            try:
                r = json.load(f)
            except ValueError:
                continue
        if r.get("bench") != "mixq_bench":
            continue
        ctx = r["context"]
        w = out.setdefault(ctx["workload"], {
            "e2e": {}, "traced": {}, "attempted": 0, "failed": 0,
            "incorrect": [], "revisions": set(), "steal": []})
        w["revisions"].add(ctx.get("revision", "unknown"))
        if ctx.get("steal_share") is not None:
            w["steal"].append(ctx["steal_share"])
        if not r["correct"]:
            w["incorrect"].append(os.path.basename(path))
        if ctx["traced"]:
            for name, m in r["per_layer"].items():
                w["traced"].setdefault(name, {})[ctx["seed"]] = m["value"]
            continue
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        for name, m in r["end_to_end"].items():
            w["e2e"].setdefault(name, {})[ctx["seed"]] = m["value"]
    if not out:
        sys.exit("bench_compare: no mixq_bench results in %s" % directory)
    return out


def tracing_overhead(w):
    traced = w["traced"].get("trace.latency_p50_ms")
    plain = w["e2e"].get("latency_p50_ms")
    if not traced or not plain:
        return None
    return statistics.median(traced.values()) / statistics.median(plain.values()) - 1


def compare(parent, change, spec, agreement):
    metrics = spec["end_to_end"]
    bad = 0
    rows = []
    for wl in sorted(set(parent) | set(change)):
        if wl not in parent or wl not in change:
            print("workload %s present on one side only" % wl)
            bad += 1
            continue
        p, c = parent[wl], change[wl]
        for side, name in ((p, "parent"), (c, "change")):
            if side["incorrect"]:
                print("INCORRECT %s %s: %s" % (name, wl, ", ".join(side["incorrect"])))
                bad += 1
        p_share = p["failed"] / max(1, p["attempted"])
        c_share = c["failed"] / max(1, c["attempted"])
        for m in metrics:
            name = m["name"]
            if name not in p["e2e"] or name not in c["e2e"]:
                rows.append((wl, name, "missing", None, ""))
                bad += 1
                continue
            v, d = verdict(p["e2e"][name], c["e2e"][name], m["bound"], m["better"])
            note = ""
            if v == "better" and c_share > p_share:
                v, note = "unchanged", "gain void: failure share rose"
            if v in ("worse", "unresolved") or (agreement and v == "better"):
                bad += 1
            note = note or "bound %g%%" % (100 * m["bound"])
            rows.append((wl, name, v, d, note))
        shares = "%.3g%% -> %.3g%%" % (100 * p_share, 100 * c_share)
        counts = "%d/%d -> %d/%d" % (p["failed"], p["attempted"], c["failed"], c["attempted"])
        rows.append((wl, "failure_share", shares, None, counts))
    fmt = "%-20s %-16s %-11s %-30s %-30s %8s %8s %6s  %s"
    print(fmt % ("workload", "metric", "verdict", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta", "spread", "wins", "note"))
    for wl, name, v, d, note in rows:
        if d is None:
            print("%-20s %-16s %s  %s" % (wl, name, v, note))
            continue
        q = lambda t: "%.5g [%.5g, %.5g]" % (t[1], t[0], t[2])
        print(fmt % (wl, name, v, q(d["parent"]), q(d["change"]),
                     "%+.2f%%" % (100 * d["delta"]), "%.2f%%" % (100 * d["spread"]),
                     "%.0f%%" % (100 * d["win_rate"]), note))
    for label, s in (("parent", parent), ("change", change)):
        for wl in sorted(s):
            o = tracing_overhead(s[wl])
            if o is not None:
                print("tracing overhead %s %-20s latency_p50 %+.2f%% "
                      "(traced vs untraced medians)" % (label, wl, 100 * o))
        revs = sorted(set().union(*(w["revisions"] for w in s.values())))
        print("%s revision: %s" % (label, ", ".join(revs)))
        steal = [x for w in s.values() for x in w.get("steal", [])]
        if steal:
            # A set measured while the host took CPU time away reads slow on
            # every workload at once; compare such sets with care.
            print("%s CPU time stolen by the host: median %.1f%%, max %.1f%%"
                  % (label, 100 * statistics.median(steal), 100 * max(steal)))
    return bad


def self_test():
    def series(base, rel, n=10, jitter=0.005):
        # Deterministic +-jitter pattern around base * (1 + rel).
        return {s: base * (1 + rel) * (1 + jitter * ((s * 7) % 5 - 2) / 2)
                for s in range(1, n + 1)}

    cases = [
        ("unchanged", series(100, 0), series(100, 0.01), 0.1, "lower"),
        ("worse", series(100, 0), series(100, 0.2), 0.1, "lower"),
        ("worse", series(1000, 0), series(1000, -0.2), 0.1, "higher"),
        ("better", series(100, 0), series(100, -0.05), 0.1, "lower"),
        ("better", series(1000, 0), series(1000, 0.05), 0.1, "higher"),
        ("unresolved", series(100, 0, jitter=0.4), series(100, 0), 0.1, "lower"),
        ("better", series(100, 0, jitter=0.4), series(10, 0), 0.1, "lower"),
        ("unchanged", series(100, 0), series(100, -0.004), 0.1, "lower"),
    ]
    failed = 0
    for want, p, c, bound, better in cases:
        got, _ = verdict(p, c, bound, better)
        status = "ok" if got == want else "FAIL"
        failed += got != want
        print("%-4s want %-10s got %-10s (%s is better, bound %g)"
              % (status, want, got, better, bound))
    # Failure-share rule: a gain with more failures does not count.
    spec = {"end_to_end": [{"name": "latency_p50_ms", "bound": 0.1, "better": "lower"}]}
    def one(values, failed_runs):
        return {"w": {"e2e": {"latency_p50_ms": values}, "traced": {}, "attempted": 1000,
                      "failed": failed_runs, "incorrect": [], "revisions": {"test"}}}
    bad = compare(one(series(100, 0), 0), one(series(100, -0.05), 5), spec, False)
    want_bad = 0
    status = "ok" if bad == want_bad else "FAIL"
    failed += bad != want_bad
    print("%-4s failure-share rule turns a gain into unchanged" % status)
    bad = compare(one(series(100, 0), 0), one(series(100, -0.05), 0), spec, True)
    status = "ok" if bad == 1 else "FAIL"
    failed += bad != 1
    print("%-4s agreement mode rejects a 'better' verdict" % status)
    print("self-test %s" % ("passed" if failed == 0 else "FAILED (%d)" % failed))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", help="PARENT_DIR CHANGE_DIR")
    ap.add_argument("--agreement", action="store_true",
                    help="both sets come from the same commit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if len(args.sets) != 2:
        ap.error("give two result directories")
    with open(BENCHMARK) as f:
        spec = json.load(f)
    bad = compare(load_set(args.sets[0]), load_set(args.sets[1]), spec, args.agreement)
    print("%d pair(s) need attention" % bad if bad else
          ("all pairs agree" if args.agreement else "no regression"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
