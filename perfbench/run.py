#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
netmax libraries plus the benchmark (Release) under .bench_build/; later
calls only rebuild what changed. Every call runs the benchmark's arithmetic
self-test, then the runner, whose last stdout line is the JSON result. The
exit status is the runner's: 0 when every output check passed, non-zero
otherwise (and on any build failure, which prints no JSON).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["paper8_hetero", "netmax32_wide", "hier4096_gossip",
             "faults_ckpt_topk"]


def run_quietly(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
    return result.returncode == 0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quietly(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "perfbench_runner", "perfbench_stats_test"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    if not run_quietly([os.path.join(BUILD, "perfbench_stats_test")]):
        return 1
    return subprocess.run([
        os.path.join(BUILD, "perfbench_runner"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--work-dir", os.path.join(BUILD, "work"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
