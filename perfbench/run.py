#!/usr/bin/env python3
"""Build and run the WebdamLog benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tc_closure --seed 1 --seconds 10 --trace 0

The engine and the benchmark are built from source with dune in the
``bench`` profile (``perfbench/wdlperf.exe`` exists only there), then
run with the given arguments. The last line of standard output is the
result object. Build output goes to standard error; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wdlperf.exe")
STATE = os.path.join(ROOT, "perfbench", "_state")


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; not a source checkout" % ROOT, file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "bench", "./perfbench/wdlperf.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE, "--state-dir", STATE] + argv, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
