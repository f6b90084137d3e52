#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-2dom --seed 1 --seconds 10 --trace 0

Workloads: fuzz-2dom, topo-8dom, serve-mixed.  The build goes
to $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so the
benchmark reads and writes nothing outside it.  The last line of
standard output is the result object printed by perfbench/bench.ml.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("fuzz-2dom", "topo-8dom", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2

    # Relative, so that the serve daemon's Unix socket path stays short.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    root = os.path.realpath(".")
    if not os.path.realpath(build_dir).startswith(root + os.sep):
        print("perfbench: build directory must lie inside the checkout",
              file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--cache=disabled", "--profile", "release", "-j", "2",
             "./perfbench/bench.exe", "./bin/tpro.exe"]
    try:
        b = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    tpro = os.path.join(build_dir, "default", "bin", "tpro.exe")
    cmd = [exe, "--tpro", tpro, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "perfbench-work")]
    # Own process group, so that a run cut off by the timeout takes the
    # serve daemons it started down with it.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
