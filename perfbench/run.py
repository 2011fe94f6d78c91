#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the root of a genbase checkout:

    python3 perfbench/run.py --workload grid-medium --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test BENCHMARK.json

The build goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 when every answer was
correct, non-zero on a wrong answer, a failed build or a missing program.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "gbbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full genbase checkout "
              "(the program's sources are missing here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/gbbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
