#!/usr/bin/env python3
"""Steadiness study: run every workload on several seeds and tabulate spread.

Usage (from the repository root):

    python3 perfbench/study.py --seeds 1-10 [--workloads week-heavy,pai-churn]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A spread
under a third of the bound is marked steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    rows = []
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < m["bound"] / 3 else "NOT steady"
            rows.append(f"| {workload} | {m['name']} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                        f"| {spread:.3f} | {m['bound']} | {verdict} |")

    print(f"{len(seeds)} seeds per workload ({args.seeds}), run_seconds {spec['run_seconds']}")
    print()
    print("| workload | metric | median | Q1 | Q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
