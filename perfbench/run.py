#!/usr/bin/env python3
"""Build and run the HAC end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Builds perfbench/hacperf.exe with dune (build output goes to stderr), then
runs it with the same arguments.  The benchmark prints its run record,
metrics and checks, and as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics.  The exit status is the
benchmark's: 0 when every correctness check passed.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def main():
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "./perfbench/hacperf.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "hacperf.exe")
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
