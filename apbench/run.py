#!/usr/bin/env python3
"""Build and run apbench, the repository's benchmark.

Run from the repository root:

    python3 apbench/run.py --workload fleet_cold --seed 1 --seconds 20 \
        --trace 0

The first run configures apbench/CMakeLists.txt into .bench_build/apbench
and builds the repository's libraries with it; later runs rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Result records and traces
are written under apbench/out/. Exits non-zero, printing no result, when
the build fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "apbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "apbench",
                        "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"apbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "apbench")
    out = os.path.join(HERE, "out")
    return subprocess.run([binary, *sys.argv[1:], "--out", out],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
