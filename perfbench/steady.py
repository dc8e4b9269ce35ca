#!/usr/bin/env python3
"""The steady check: run each workload on several seeds and report, per
end-to-end metric, the median and the spread (interquartile distance as a
share of the median), against the bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Exits 1 if a run fails or any spread, setup_s included, exceeds its bound.
A spread above a third of its bound passes but is marked: the benchmark
aims below that line, so that two batches of runs on the same code also
agree on their medians.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {run.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.runs} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  <-- FAIL: above the bound"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:22s} median {med:14.6f}  spread {spread * 100:6.2f}%"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
