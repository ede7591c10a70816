#!/usr/bin/env python3
"""Compare two sets of apbench results: the parent commit and a change.

    python3 apbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files that `apbench --out DIR` writes
(<workload>.s<seed>.t0.json), one per run. Runs of the two sides are
paired by workload and seed. For every workload x end-to-end metric the
table shows each side's median and quartiles, the pairs the change won,
and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (interquartile distance / median) is
              wider than the bound, and not every run of the change reads
              better than every run of the parent;
  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile distance;
  unchanged   anything else.

Exits 1 when any row is worse, 0 otherwise.
"""
import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory, names):
    """{(workload, seed): {metric: value}} for the end-to-end metrics."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.t0.json")):
        with open(path) as f:
            records = json.load(f)["records"]
        values = {r["metric"]: r["value"] for r in records
                  if r["metric"] in names}
        if values:
            runs[(records[0]["workload"], records[0]["seed"])] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, new, wins, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)

    def better(a, b):
        return a < b if lower else a > b

    worse_by = (nmed - bmed) if lower else (bmed - nmed)
    if bmed and worse_by > bound * abs(bmed):
        return "worse"
    all_better = all(better(n, b) for n in new for b in base)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and abs(nmed - bmed) > b3 - b1):
        return "improved"
    return "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(here),
                                         "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load(args.base, metrics)
    new = load(args.new, metrics)

    print(f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    any_worse = False
    for w in [w["name"] for w in spec["workloads"]]:
        for name, metric in metrics.items():
            bv = [v[name] for (wl, _), v in sorted(base.items())
                  if wl == w and name in v]
            nv = [v[name] for (wl, _), v in sorted(new.items())
                  if wl == w and name in v]
            if not bv or not nv:
                print(f"{w:<11} {name:<15} {'(no runs)':>34}")
                continue
            pairs = [(base[k][name], new[k][name]) for k in sorted(base)
                     if k[0] == w and k in new and name in new[k]]
            lower = metric["better"] == "lower"
            wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
            v = verdict(metric, bv, nv, wins, len(pairs))
            any_worse |= v == "worse"
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            print(f"{w:<11} {name:<15} {bm:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{nm:12.5g} [{n1:9.5g}, {n3:9.5g}] "
                  f"{wins:>3}/{len(pairs):<3}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
