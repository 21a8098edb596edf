#!/usr/bin/env python3
"""Repeats one benchmark workload and summarizes each metric's spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload batch_dblp --runs 10 [--seed 1]
        [--seconds N] [--size full|tiny]

Runs are untraced; run i uses seed `--seed + i`. Each run's JSON result is
printed as it arrives. For every metric it then prints the median, the first
and third quartiles (statistics.quantiles, n=4), the quartile spread and the
worst deviation from the median, both as a share of the median, and the
bound from BENCHMARK.json with a verdict: "ok" when the quartile spread is
below a third of the bound. Exits 1 if a run fails or reports correct=false,
and 3 if any spread is not below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(args, seed):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"repeat: run with seed {seed} failed "
                 f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"repeat: run with seed {seed} reported correct=false")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.runs):
        result = run_once(args, args.seed + i)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i + 1}/{args.runs} seed={args.seed + i} "
              f"{json.dumps(result)}", flush=True)

    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'worst':>8} {'bound':>6} verdict")
    steady = True
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        scale = abs(median) if median else 1.0
        spread = (q3 - q1) / scale
        worst = max(abs(v - median) for v in series) / scale
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = spread < bound / 3
            steady = steady and ok
            verdict = "ok" if ok else "SPREAD"
        print(f"{name:32} {units[name]:6} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.3f} {worst:8.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
