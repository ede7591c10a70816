#!/usr/bin/env python3
"""Smoke test of apbench: every workload, about a second each.

    python3 apbench/smoke.py --binary PATH/apbench [--benchmark BENCHMARK.json]

For every workload in BENCHMARK.json it runs seed 1 untraced and traced
and seed 2 untraced, and asserts that:
  - every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is emitted, and no other;
  - every run is correct with no failed operation;
  - the same seed gives the same request-stream digest;
  - a different seed gives a different digest.
Registered as the ctest `apbench_smoke` by apbench/CMakeLists.txt.
"""
import argparse
import json
import os
import subprocess
import sys

SECONDS = "1"


def run(binary, workload, seed, trace):
    p = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", SECONDS, "--trace", str(trace)],
                       capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}: {p.stderr}")
    lines = p.stdout.strip().splitlines()
    digest = [ln.split()[2] for ln in lines
              if ln.split()[1:2] == ["stream_digest"]]
    return json.loads(lines[-1]), digest[0], p.stderr


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(here),
                                         "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, digest, stderr = run(args.binary, w, seed, trace)
            digests[(seed, trace)] = digest
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(
                    f"{w} trace={trace}: missing "
                    f"{sorted(expected[trace] - got)}, unexpected "
                    f"{sorted(got - expected[trace])}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} seed={seed} trace={trace}: incorrect "
                                f"({result['failed']} failed)\n{stderr}")
        if digests[(1, 0)] != digests[(1, 1)]:
            problems.append(f"{w}: seed 1 gave two request streams")
        if digests[(1, 0)] == digests[(2, 0)]:
            problems.append(f"{w}: seeds 1 and 2 gave one request stream")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
