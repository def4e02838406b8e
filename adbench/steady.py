#!/usr/bin/env python3
"""Steadiness check for the adcheck benchmark.

Runs one workload (or all of them) N times, each with its own seed, the
way BENCHMARK.json's command runs it, and prints for every end-to-end
metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a
share of the median, next to the metric's bound.

    python3 adbench/steady.py --workload audit-full --runs 10
    python3 adbench/steady.py --workload all --runs 10 --seed0 100
    python3 adbench/steady.py --workload all --runs 1 --show

Run it from the root of the repository.  It exits non-zero if a run
fails, prints an incorrect result or a metric set other than the one
BENCHMARK.json lists, or if any metric's spread, setup_s's included,
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace, show):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    if show:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--show", action="store_true",
                    help="also print each run's human-readable summary, "
                         "which names the metrics per workload")
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    expected = [m["name"] for m in metrics]
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        values = {m: [] for m in expected}
        walls = []
        for i in range(args.runs):
            seed = args.seed0 + i
            result, wall = run_once(bench["command"], workload, seed,
                                    args.seconds, args.trace, args.show)
            walls.append(wall)
            got = list(result["metrics"])
            if got != expected:
                print(f"{workload} seed {seed}: metrics {got} != {expected}")
                ok = False
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for m in expected:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"{result['attempted']} ops, " +
                  ", ".join(f"{m}={values[m][-1]:.6g}" for m in expected),
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, {sum(walls):.0f} s wall "
              f"(max {max(walls):.1f} s per run)")
        if args.trace or args.runs < 2:
            continue
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'iqr/med':>8} {'bound':>6}")
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            flag = "" if spread <= bound / 3 else (
                " above bound/3" if spread <= bound else " ABOVE BOUND")
            if spread > bound:
                ok = False
            print(f"  {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>8.3f} {bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
