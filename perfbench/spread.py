#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload synth-d64 --workload sweep-fine --seeds 1-10

Runs are interleaved (for each seed, every workload once), so a slow phase
of a shared host spreads over all workloads instead of hitting one. For
every end-to-end metric of BENCHMARK.json it prints the median over the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A run that fails or is not correct is reported and makes
the exit code 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"]]
    values = {w: {name: [] for name in names} for w in args.workload}
    failed_runs = 0
    for seed in seeds_of(args.seeds):
        for workload in args.workload:
            command = list(bench["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if not result or not result["correct"]:
                failed_runs += 1
                print(f"{workload} seed {seed}: run failed or not correct", flush=True)
                continue
            for name in names:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[workload][name][-1]:.6g}" for name in names), flush=True)
    for workload in args.workload:
        for metric in bench["end_to_end"]:
            vals = values[workload][metric["name"]]
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{workload} {metric['name']}: median {med:.6g} "
                  f"spread {(q[2] - q[0]) / med:.3f} bound {metric['bound']}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
