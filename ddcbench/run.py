#!/usr/bin/env python3
"""Builds the ddcbench binary from source and runs one benchmark workload.

Run from the root of a checkout:

    python3 ddcbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's own stdout is passed through,
so its last line is the result JSON. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "ddcbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "ddcbench", "-j4"],
    ]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("ddcbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ddcbench")


def main():
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    cmd = [binary, "--work-dir", build_root] + sys.argv[1:]
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
