#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/src/bench.exe with dune (the program under test is
compiled from the checkout's sources), then runs it with the same
arguments. The last line of standard output is the benchmark's JSON
result; build output goes to standard error. Exits non-zero, without a
result, when the checkout holds no buildable repository.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "src", "bench.exe")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("data", "baselines")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/src/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
