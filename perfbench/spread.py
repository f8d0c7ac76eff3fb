#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload mix_2v --runs 10 [--first-seed 1]

Runs the benchmark once per seed, then prints, for each end-to-end
metric, the median of the runs, the first and third quartiles
(statistics.quantiles, n=4) and their distance as a share of the
median, next to the bound BENCHMARK.json allows.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().split("\n")[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
    worst = 0.0
    print("%-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.2f" % (m["name"], med, q1, q3, spread, m["bound"]))
    print("largest spread/bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
