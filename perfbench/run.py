#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clean_sharded --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench (configured once, then incremental;
its output goes to stderr). The benchmark binary prints a metrics table and,
as the last line on stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the traced run's spans are written to
.bench_build/perfbench/spans/<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("clean_sharded", "lossy_sharded")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
GOLDEN = os.path.join("tests", "data", "golden_campaign.json")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures (first time) and builds the benchmark; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD_DIR, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def main():
    args = parse_args()
    # The benchmark builds the program under test from this checkout.
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or \
            not os.path.isfile(GOLDEN):
        print("perfbench: run from the root of a shadowprobe checkout "
              "(src/ and %s are missing)" % GOLDEN, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "campaign_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--golden", GOLDEN,
        "--spans-out",
        os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
