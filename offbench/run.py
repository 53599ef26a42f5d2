#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 offbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
offbench (the program's libraries from src/ plus the runner) under
.bench_build/offbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the runner's JSON result. With
--trace 1 the spans of the last traced run are written to
.bench_build/offbench/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "offbench")


def refuse_mpioff_env():
    """Every MPIOFF_* variable retunes a layer of the program."""
    for var in sorted(os.environ):
        if var.startswith("MPIOFF_"):
            sys.stderr.write(f"offbench: {var} is set; unset it to measure the "
                             "pinned configuration\n")
            sys.exit(3)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "offbench", "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.stderr.write(f"offbench: build step failed ({rc}): {' '.join(cmd)}\n")
            sys.exit(4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    refuse_mpioff_env()
    build()
    cmd = [os.path.join(BUILD, "offbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace == 1:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{a.workload}-{a.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
