#!/usr/bin/env python3
"""Build and run the served-request benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mix_2v --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn
    python3 perfbench/run.py --selftest                  # exact-count self-test

--seconds defaults to run_seconds in BENCHMARK.json.

The harness is perfbench/main.ml, built with dune from this checkout.
For one workload the last line of standard output is the JSON result;
its metric names and units are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the harness and its libraries; their sources must be here."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("run from the repository root: %s is missing" % needed)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_one(spec, workload, seed, seconds, trace):
    """Run one workload; print its output with the result line last."""
    try:
        done = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    print("\n".join(body))
    try:
        result = json.loads(last)
    except ValueError:
        die("%s printed no result (exit %d)" % (workload, done.returncode))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, or units differ"
            % (missing, extra))
    if done.returncode != 0:
        print(last)
        die("%s failed its correctness checks" % workload, code=1)
    print(last, flush=True)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    build()
    if args.selftest:
        sys.exit(subprocess.run([EXE, "--selftest"], timeout=RUN_TIMEOUT_S).returncode)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload == "all":
        for w in workloads:
            run_one(spec, w, args.seed, seconds, args.trace)
            print()
    elif args.workload in workloads:
        run_one(spec, args.workload, args.seed, seconds, args.trace)
    else:
        die("unknown workload %r (choose from %s or all)" % (args.workload, ", ".join(workloads)))


if __name__ == "__main__":
    main()
