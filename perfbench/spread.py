#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10

Runs the command of BENCHMARK.json for every seed in turn, with the
configured run length, and prints per metric the median, the first and
third quartiles (as Python's statistics.quantiles(values, n=4) gives them)
and the interquartile range as a share of the median, next to the metric's
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        started = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - started
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{run.stdout[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.1f} s): " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload} over {len(args.seeds)} seeds")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
