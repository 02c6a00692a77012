#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark on one build.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--trace 0|1]

Runs each workload --runs times, each with the next seed, through the
command in BENCHMARK.json, and prints for every metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) /
median against the metric's bound. A spread under a third of the bound is
"steady"; under the bound, "within"; above it, "UNSTEADY". The spread of
setup_s does not count against steadiness (its verdict says "not gated"):
set-up is a few tens of milliseconds, so its spread is mostly host noise,
and a regression check compares its median, not its spread. The script also
checks that the share of failed operations is the same in every run. Use it
to set the bounds and to drop a workload that cannot be made steady. Run it
from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({got.returncode}):\n{got.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            runs.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({share:.4f})", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, "
                  f"correct {[r['correct'] for r in runs]}")
        print(f"{'metric':<28} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within" if spread <= bound else "UNSTEADY")
                if m["name"] == "setup_s":
                    verdict += " (not gated)"
                elif spread > bound:
                    steady = False
            print(f"{m['name']:<28} {m['unit']:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}  {verdict}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
