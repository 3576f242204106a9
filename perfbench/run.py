#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold|validate|tune \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the PolyInject library from src/ plus the perfbench program)
into .bench_build/; later calls only rebuild what changed. Build output
goes to stderr, so the benchmark's JSON result stays the last line of
stdout. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run(cmd):
    """Runs cmd to completion, its stdout redirected to our stderr."""
    return subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            return False
    return run(["cmake", "--build", BUILD, "-j", jobs,
                "--target", "perfbench"]) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
