#!/usr/bin/env python3
"""Socket-level serving benchmark of streamrel_serve.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_queries --seed 1 \
        --seconds 10 --trace 0

Builds the daemon and the load generator from this source tree into
.bench_build/ (first run only; later runs rebuild incrementally), reads
the workload's latency limit and fixed-rate offered load from the
workload's "why" line in BENCHMARK.json, and runs perfbench_loadgen. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. perfbench/README.md documents the metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["streamrel_serve", "perfbench_loadgen"]


def workload_params(name):
    """(limit_ms, rate) from the workload's line in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        if w["name"] == name:
            limit = re.search(r"limit ([0-9.]+) ms", w["why"])
            rate = re.search(r"([0-9.]+) req/s", w["why"])
            if not limit or not rate:
                sys.exit("BENCHMARK.json: no 'limit N ms' / 'N req/s' for " + name)
            return float(limit.group(1)), float(rate.group(1))
    sys.exit("unknown workload " + name)


def build():
    """Configure once, then build only the two targets (quietly)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    limit_ms, rate = workload_params(args.workload)
    build()
    cmd = [os.path.join(BUILD, "perfbench_loadgen"),
           "--serve", os.path.join(BUILD, "streamrel", "tools", "streamrel_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--limit-ms", str(limit_ms), "--rate", str(rate),
           "--work-dir", os.path.join(ROOT, ".bench_build", "work")]
    # The load generator prints the result line itself; its exit code is
    # the run's verdict (non-zero on any correctness failure).
    sys.exit(subprocess.run(cmd, timeout=170).returncode)


if __name__ == "__main__":
    main()
