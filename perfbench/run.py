#!/usr/bin/env python3
"""Build the ceta benchmark from source and run one workload.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ceta checkout.  The first call configures and
builds perfbench (and the ceta libraries it links) in .bench_build/ as a
Release build; later calls rebuild incrementally.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no ceta sources (CMakeLists.txt, src/) beside "
                 "perfbench/; run it from a ceta checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    binary = BUILD / "perfbench"
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
