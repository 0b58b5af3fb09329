#!/usr/bin/env python3
"""Benchmark entry point for jamelect.

    python3 perfbench/run.py --workload {engines,repro,service} \
        --seed N --seconds S --trace {0,1}

Run from the root of a jamelect source tree. Builds jamelect (Release)
and installs it under the build directory, builds the benchmark driver
in perfbench/ against that install, then runs one workload. Build output
goes to stderr; the driver prints one line per metric and, as the last
line of stdout, one JSON result object.

The build directory is $CARGO_TARGET_DIR if set, else .bench_build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver stops on its own; this only guards against a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_step(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def configure(src, build, defs):
    cmd = ["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    run_step(cmd + ["-D%s=%s" % kv for kv in defs])


def build(out):
    """Builds and installs jamelect, then the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no jamelect source tree at %s" % ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    lib = os.path.join(out, "jamelect")
    prefix = os.path.join(out, "prefix")
    if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
        configure(ROOT, lib, [("JAMELECT_BUILD_TESTS", "OFF"),
                              ("JAMELECT_BUILD_BENCH", "OFF"),
                              ("JAMELECT_BUILD_EXAMPLES", "OFF"),
                              ("JAMELECT_WERROR", "OFF")])
    run_step(["cmake", "--build", lib, "-j", jobs])
    run_step(["cmake", "--install", lib, "--prefix", prefix])
    drv = os.path.join(out, "perfbench")
    if not os.path.isfile(os.path.join(drv, "CMakeCache.txt")):
        configure(HERE, drv, [("JAMELECT_PREFIX", prefix)])
    run_step(["cmake", "--build", drv, "-j", jobs])
    return os.path.join(drv, "jamelect_perfbench"), os.path.join(prefix, "bin")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["engines", "repro", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        exe, bindir = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    work = os.path.join(out, "runs")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", bindir, "--work-dir", work]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
