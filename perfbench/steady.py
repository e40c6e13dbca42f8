#!/usr/bin/env python3
"""Run each workload several times, one seed per run, and print the median
and quartiles of every end-to-end metric with its spread: the distance
between the quartiles as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --runs 5 --workloads scan-pooled --seed-base 101

Run from the root of a checkout. The bounds in BENCHMARK.json are set
from this command's output; README.md records it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["update-churn", "read-mostly", "scan-pooled"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--bounds", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                    help="BENCHMARK.json whose end-to-end bounds the spreads are compared with")
    opts = ap.parse_args()
    bounds = {}
    if os.path.isfile(opts.bounds):
        with open(opts.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f).get("end_to_end", [])}
    for w in opts.workloads.split(","):
        results = [run_once(w, opts.seed_base + i, opts.seconds) for i in range(opts.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"## {w}: {opts.runs} runs, seeds {opts.seed_base}..{opts.seed_base + opts.runs - 1}, "
              f"{opts.seconds:g} s each; correct={correct}; failed share {shares}")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name, "")
            print(f"| {name} | {results[0]['metrics'][name]['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {bound} |")
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
