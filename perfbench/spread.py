#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads cold_study,stream --seeds 1-10 \\
        [--seconds 10] [--trace 0] [--jsonl results.jsonl]

Runs are sequential (never two at once, so they do not disturb each other).
For every workload and metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.
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


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-5", type=seed_list)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--jsonl", help="append every result line here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if args.jsonl:
                with open(args.jsonl, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "wall_s": wall, "result": result}) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            bound = bounds.get(name)
            print(f"  {workload:<11} {name:<34} median {statistics.median(series):<14.6g}"
                  f" spread {spread(series):7.4f}  bound {bound}  n={len(series)}")


if __name__ == "__main__":
    main()
