#!/usr/bin/env python3
"""Self-check of the benchmark's seeding and determinism.

    python3 offbench/selfcheck.py [--workloads a,b] [--seconds S]

For each workload, from the root of a checkout, it shows that
  1. the same seed gives identical virtual metrics, input digest and result
     digest (two untraced runs of seed 1);
  2. a different seed gives different inputs (seed 2: another input digest);
  3. traced and untraced runs agree on every virtual result: the traced
     invocation checks its traced runs against its untraced runs and is
     correct only when they are bit-identical, its result digest equals the
     untraced invocation's, and two traced invocations of one seed report
     identical virtual per-layer counters.
Exits 1 on the first workload that fails a check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALL = ["p2p_mt_small", "halo_partitioned", "fft_alltoall", "serve_open"]
HOST_METRICS = {"setup_s", "host_s", "peak_rss_mb", "sim.host_ns_per_event",
                "bench.trace_overhead_frac"}


def run(workload, seed, trace, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr}")
    tag = lambda key: next(l.split(":", 1)[1].strip() for l in lines if l.strip().startswith(key))
    res = json.loads(lines[-1])
    virtual = {k: v["value"] for k, v in res["metrics"].items() if k not in HOST_METRICS}
    return {"correct": res["correct"], "failed": res["failed"], "virtual": virtual,
            "digest": tag("digest:"), "inputs": tag("input digest:")}


def check(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(ALL))
    ap.add_argument("--seconds", type=float, default=1.0)
    a = ap.parse_args()
    for wl in a.workloads.split(","):
        print(wl)
        r1, r1b, r2 = (run(wl, s, 0, a.seconds) for s in (1, 1, 2))
        t1, t1b = (run(wl, 1, 1, a.seconds) for _ in range(2))
        check(all(r["correct"] and r["failed"] == 0 for r in (r1, r1b, r2, t1, t1b)),
              "all five invocations correct, no failed operations")
        check(r1["virtual"] == r1b["virtual"], "same seed: identical virtual metrics")
        check(r1["digest"] == r1b["digest"] and r1["inputs"] == r1b["inputs"],
              "same seed: identical input and result digests")
        check(r1["inputs"] != r2["inputs"], "different seed: different inputs")
        check(t1["digest"] == r1["digest"], "traced invocation: same result digest")
        check(t1["virtual"] == t1b["virtual"], "traced: identical virtual per-layer counters")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
