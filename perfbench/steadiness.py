#!/usr/bin/env python3
"""Steadiness check: run each workload N times and compare spreads to bounds.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 1|2]
        [--workloads a,b] [--trace 0|1]

Run i of a set uses seed i (1..runs); a second set repeats the same
seeds.  Per workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, beside the
metric's bound from BENCHMARK.json.  A spread above a third of its bound is
marked "wide", above the bound "OVER".  With --sets 2 it also prints how
much the second set's median is worse than the first's, which must stay
within the bound for every metric.  Exits 1 when a run fails or a check is
violated.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                    for seed in range(1, args.runs + 1)]
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  {'2nd worse':>9}")
        for metric in metrics:
            name = metric["name"]
            bound = metric.get("bound")
            meds = []
            for runs in sets:
                values = [r[name] for r in runs]
                meds.append(summary(values))
            med, q1, q3, spread = meds[0]
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = "OVER", False
                elif spread > bound / 3:
                    flag = "wide"
            drift = ""
            if len(meds) == 2 and bound is not None:
                w = worse_by(meds[0][0], meds[1][0], metric["better"])
                drift = f"{w:+.4f}"
                if w > bound:
                    flag, ok = "DRIFT", False
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound_text:>6}  {drift:>9} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
