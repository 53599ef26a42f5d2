#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over seeds.

    python3 offbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                               [--seconds S] [--out results.json]

Runs offbench/run.py once per (workload, seed), from the root of the
checkout, and reports for every metric the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. With
--trace 0 each end-to-end spread is compared with its bound in
BENCHMARK.json (setup_s is exempt from the spread check); a spread above a
third of its bound is flagged "wide", above the bound "FAIL". Exits 1 when a
run fails or is incorrect, or a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    results = {}
    for wl in a.workloads.split(","):
        runs = []
        for seed in seeds_of(a.seeds):
            t0 = time.time()
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", wl, "--seed", str(seed),
                                "--seconds", str(a.seconds), "--trace", str(a.trace)],
                               cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                ok = False
                continue
            r = json.loads(lines[-1])
            r["wall_s"] = wall
            runs.append(r)
            if not r["correct"] or r["failed"] != 0:
                print(f"{wl} seed {seed}: correct={r['correct']} failed={r['failed']}")
                ok = False
            print(f"{wl} seed {seed}: {wall:.1f} s wall", flush=True)
        results[wl] = runs
        if len(runs) < 4:
            continue
        print(f"\n{wl}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ""
            if a.trace == 0 and name in bounds and name != "setup_s":
                b = bounds[name]
                verdict = "FAIL" if spread > b else ("wide" if spread > b / 3 else "ok")
                ok = ok and spread <= b
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  {verdict}")
    if a.out:
        json.dump(results, open(a.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
