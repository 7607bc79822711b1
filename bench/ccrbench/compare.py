#!/usr/bin/env python3
"""Summarises or compares ccrbench result sets.

    compare.py SET                    # medians, quartiles and spreads
    compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

A set is a directory holding BENCH_<workload>.json files at any depth, one
per run, as run.sh writes them. Bounds, units and directions come from
BENCHMARK.json at the repository root.

For every (workload, end-to-end metric) the comparison reports:

  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's spread (IQR over median) is wider than the
              bound, unless every change run reads better than every parent
              run
  ok          otherwise

A claim holds only with at least 10 pairs run in alternating order, a win
in at least 9 of every 10 pairs (ties count for neither side), a median gap
larger than the parent's IQR, and no more failed requests than the parent.
Runs pair up by seed, so run both sides on the same seeds; the order check
reads each result's start time and wants the side that ran first to
alternate from one pair to the next.

Exit status 1 on any regression or unmet claim, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")


def load_set(path):
    """{workload: {seed: run}} for every BENCH_*.json under `path`."""
    runs = {}
    for name in glob.glob(os.path.join(path, "**", "BENCH_*.json"),
                          recursive=True):
        with open(name) as f:
            run = json.load(f)
        if run.get("trace"):
            continue  # per-layer runs carry no end-to-end metrics
        runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, parent, change):
    """How much worse `change` reads than `parent`, as a share of parent."""
    gap = (change - parent) / parent if parent else 0.0
    return gap if metric["better"] == "lower" else -gap


def summarise(bench, runs):
    """Median, quartiles and spread per (workload, metric). `calib` is the
    bound a calibration of these runs gives: three times the spread, at
    least 3% and at most 25%. A spread wider than the fixed bound is marked
    WIDE."""
    print(f"{'workload':<12} {'metric':<12} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'calib':>6} {'bound':>6}")
    for workload in sorted(runs):
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in runs[workload].values()]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            print(f"{workload:<12} {metric['name']:<12} {len(values):>3} "
                  f"{q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>7.2%} "
                  f"{min(max(3 * s, 0.03), 0.25):>6.1%} "
                  f"{metric['bound']:>6.0%}"
                  f"{'  WIDE' if s > metric['bound'] else ''}")


def compare(bench, parent, change, claims):
    failed = False
    print(f"{'workload':<12} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<12} missing on one side")
            failed = True
            continue
        p_runs, c_runs = parent[workload], change[workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs.values()]
            c = [r["metrics"][name]["value"] for r in c_runs.values()]
            p_med, c_med = statistics.median(p), statistics.median(c)
            worse = worse_by(metric, p_med, c_med)
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                failed = True
            elif max(spread(p), spread(c)) > metric["bound"] and not all(
                    worse_by(metric, pv, cv) < 0 for pv in p for cv in c):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<12} {name:<12} {p_med:>12.4f} {c_med:>12.4f} "
                  f"{worse:>9.2%} {metric['bound']:>6.0%}  {verdict}")
    for claim in claims:
        workload, _, name = claim.partition(":")
        metric = next((m for m in bench["end_to_end"] if m["name"] == name),
                      None)
        if metric is None or workload not in parent or workload not in change:
            print(f"claim {claim}: unknown workload or metric")
            failed = True
            continue
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        pairs.sort(key=lambda pc: min(pc[0]["started_unix"],
                                      pc[1]["started_unix"]))
        parent_first = [p["started_unix"] < c["started_unix"]
                        for p, c in pairs]
        alternated = all(a != b for a, b in zip(parent_first,
                                                parent_first[1:]))
        wins = sum(worse_by(metric, p["metrics"][name]["value"],
                            c["metrics"][name]["value"]) < 0
                   for p, c in pairs)
        p = [pr["metrics"][name]["value"] for pr, _ in pairs]
        c = [cr["metrics"][name]["value"] for _, cr in pairs]
        q1, _, q3 = quartiles(p) if p else (0, 0, 0)
        gap = abs(statistics.median(c) - statistics.median(p)) if p else 0
        more_failures = sum(cr["failed"] for _, cr in pairs) > sum(
            pr["failed"] for pr, _ in pairs)
        met = (len(pairs) >= 10 and alternated and
               wins * 10 >= 9 * len(pairs) and gap > q3 - q1 and
               not more_failures and
               worse_by(metric, statistics.median(p),
                        statistics.median(c)) < 0)
        print(f"claim {claim}: {wins}/{len(pairs)} pairs won, median gap "
              f"{gap:.4f} vs parent IQR {q3 - q1:.4f}"
              f"{'' if alternated else ', order did not alternate'}"
              f"{', more failures' if more_failures else ''}: "
              f"{'MET' if met else 'NOT MET'}")
        failed |= not met
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", help="SET, or PARENT CHANGE")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load_set(s) for s in args.sets]
    if len(sets) == 1:
        summarise(bench, sets[0])
        return 0
    if len(sets) != 2:
        parser.error("give one set, or two")
    return 1 if compare(bench, sets[0], sets[1], args.claim) else 0


if __name__ == "__main__":
    sys.exit(main())
