#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 benchmark/compare.py --parent p1.json ... --change c1.json ...

Each file is a `run.py --out` record. The runs must form at least 10
parent/change pairs, run back to back with the side that goes first
alternating from pair to pair, all with the same --seconds and --trace and
each pair on one seed. For every (workload, metric) it prints each side's
median and quartiles, the change's win fraction over the pairs, and a
verdict, one workload per row:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance; void when the change failed more checks
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own quartile distance exceeds the bound, and not
              every change run beats every parent run
  unchanged   none of the above

Per-layer metrics have no bound: they are only ever improved, worse (the
improved rule in the other direction) or no claim. Exits 1 when an
end-to-end metric regressed or a gain is void, 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def pair_runs(parent, change):
    """Returns [(parent_run, change_run)] in time order, or raises
    ValueError when the runs are not alternating pairs of one setting."""
    if len(parent) < MIN_PAIRS or len(parent) != len(change):
        raise ValueError(f"need at least {MIN_PAIRS} parent and as many "
                         f"change runs, got {len(parent)} and {len(change)}")
    settings = {(r["seconds"], r["trace"]) for r in parent + change}
    if len(settings) != 1:
        raise ValueError("runs differ in --seconds or --trace")
    timeline = sorted([(r["started_unix"], "parent", r) for r in parent] +
                      [(r["started_unix"], "change", r) for r in change],
                      key=lambda t: t[0])
    pairs = []
    for i in range(0, len(timeline), 2):
        (_, side_a, a), (_, side_b, b) = timeline[i], timeline[i + 1]
        if side_a == side_b:
            raise ValueError(f"pair {i // 2 + 1} holds two {side_a} runs: "
                             "runs must come in back-to-back pairs")
        first = "parent" if i // 2 % 2 == 0 else "change"
        if side_a != first:
            raise ValueError(f"pair {i // 2 + 1} runs the {side_a} first: "
                             "the first side must alternate, parent first")
        p, c = (a, b) if side_a == "parent" else (b, a)
        if p["seed"] != c["seed"]:
            raise ValueError(f"pair {i // 2 + 1} mixes seeds "
                             f"{p['seed']} and {c['seed']}")
        pairs.append((p, c))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict of one metric from paired values (parent[i] with change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    apart = abs(cmed - pmed) > pq3 - pq1
    if wins >= 0.9 * len(parent) and apart and sign * (cmed - pmed) > 0:
        result = "improved"
    elif bound is None:
        result = ("worse" if losses >= 0.9 * len(parent) and apart
                  and sign * (cmed - pmed) < 0 else "no claim")
    elif sign * (cmed - pmed) < -bound * abs(pmed):
        result = "regressed"
    elif (pq3 - pq1 > bound * abs(pmed) and
          not sign * (min(change, key=lambda v: sign * v) -
                      max(parent, key=lambda v: sign * v)) > 0):
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins / len(parent)


def compare(spec, pairs):
    """Rows of (metric, unit, workload, parent q1/med/q3, change q1/med/q3,
    win fraction, verdict), and the failure totals of each side."""
    metrics = ([(m, m["bound"]) for m in spec["end_to_end"]] +
               [(m, None) for m in spec["per_layer"]])
    workloads = [w["name"] for w in spec["workloads"]]
    failed = {"parent": 0, "change": 0}
    for p, c in pairs:
        for w in p["workloads"].values():
            failed["parent"] += w["failed"]
        for w in c["workloads"].values():
            failed["change"] += w["failed"]
    rows = []
    for metric, bound in metrics:
        for workload in workloads:
            values = paired_values(pairs, workload, metric["name"])
            if not values:
                continue
            parent = [p for p, _ in values]
            change = [c for _, c in values]
            result, win_frac = verdict(parent, change, metric["better"], bound)
            if result == "improved" and failed["change"] > failed["parent"]:
                result = "void"
            rows.append((metric["name"], metric["unit"], workload,
                         quartiles(parent), quartiles(change), win_frac,
                         result, bound))
    return rows, failed


def paired_values(pairs, workload, name):
    """[(parent value, change value)] of one metric, or [] when any run of
    either side lacks it."""
    values = []
    for p, c in pairs:
        try:
            values.append((p["workloads"][workload]["metrics"][name]["value"],
                           c["workloads"][workload]["metrics"][name]["value"]))
        except KeyError:
            return []
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    try:
        pairs = pair_runs(load_runs(args.parent), load_runs(args.change))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    rows, failed = compare(spec, pairs)
    print(f"{len(pairs)} pairs; failed checks: parent {failed['parent']}, "
          f"change {failed['change']}")
    current = None
    for name, unit, workload, p, c, win_frac, result, bound in rows:
        if name != current:
            current = name
            gate = "no bound" if bound is None else f"bound {bound:.0%}"
            print(f"\n{name} [{unit}, {gate}]")
            print(f"  {'workload':24} {'parent median [q1, q3]':>36} "
                  f"{'change median [q1, q3]':>36} {'change':>8} "
                  f"{'wins':>5}  verdict")
        delta = (c[1] - p[1]) / abs(p[1]) if p[1] else float("nan")
        print(f"  {workload:24} {p[1]:12.5g} [{p[0]:10.5g}, {p[2]:10.5g}] "
              f"{c[1]:12.5g} [{c[0]:10.5g}, {c[2]:10.5g}] {delta:+8.2%} "
              f"{win_frac:5.0%}  {result}")
    bad = [r for r in rows if r[6] == "void" or
           (r[6] == "regressed" and r[7] is not None)]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
