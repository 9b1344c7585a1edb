#!/usr/bin/env python3
"""Builds the DSKG benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload batch-tune --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The harness (perfbench/src) is built with
CMake against the repository's `dskg` library into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run builds, later runs only check
that the build is current. The harness's last line of standard output is the
result JSON; build output and progress go to standard error. A traced run
(--trace 1) also writes a Chrome trace-event file next to the build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-tune", "wire-serve", "online-ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing from {ROOT}; the benchmark "
                     "builds the program from the checkout's sources")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "dskg_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset-size multiplier (the self-test runs tiny)")
    ap.add_argument("--inject-row-error", action="store_true",
                    help="corrupt one expected answer (self-test only)")
    args = ap.parse_args()

    binary = build()
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--work-dir", work,
           "--trace-file",
           os.path.join(build_dir(), f"trace-{args.workload}.json")]
    if args.inject_row_error:
        cmd.append("--inject-row-error")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(r.stdout.decode())
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
