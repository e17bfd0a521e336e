#!/usr/bin/env python3
"""Builds and runs the nanoleak benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|signoff|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library and the benchmark binary
(perfbench/src) into .bench_build/perfbench; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; the lines above the result print every
number with its unit, median, tail percentile and sample count. Spans of a
traced run are written to .bench_build/perfbench/trace-<workload>-<seed>.json
(Chrome trace-event format).

Seeds: the workloads were developed on seed 1 and checked on the held-out
seed 7.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sweep", "signoff", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def build():
    """Configures if needed and builds; False when either step fails."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    # A failed first configure leaves a cache but no binary: configure
    # again until a build has succeeded.
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(BUILD, ROOT)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
