#!/usr/bin/env python3
"""Builds and runs the request-level benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload tune-emit --seed 1 --seconds 20 --trace 0

The first run configures and builds the cypress library and the benchmark
binary from source into .bench_build/ (CARGO_TARGET_DIR, when set, names
that directory instead); later runs only check the build is current. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Every other argument is passed to the binary unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no cypress sources next to the benchmark "
                 "(expected src/CMakeLists.txt at the repository root)")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "reqbench",
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "reqbench")


def main():
    binary = build()
    result = subprocess.run([binary] + sys.argv[1:])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
