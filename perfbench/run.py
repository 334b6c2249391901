#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_openpmd|paper_original|bit1_job>
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench (and the bitio libraries it
links) into .bench_build/ with CMake; later calls only re-check the build.
Build output goes to stderr, so the benchmark's last stdout line is its
JSON result.  The exit code is the benchmark's: non-zero when the build
fails or any correctness check fails.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([BINARY, *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
