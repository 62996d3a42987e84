#!/usr/bin/env python3
"""Builds the vinoc benchmark from source and runs one workload.

    python3 perfbench/run.py --workload synth-d64 --seed 1 --seconds 15 --trace 0

Run from the root of a source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the tree; later runs rebuild only what changed.
Build output goes to stderr; the benchmark's report goes to stdout, ending with
one JSON line. Traced runs (--trace 1) also write
<build dir>/traces/<workload>.json, validated with trace_check.

--write-golden records the golden QoR table of a workload from the current
tree (perfbench/golden/); use it only for an intentional behaviour change.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth-d64", "sweep-fine", "campaign-mix", "campaign-sharded")


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no vinoc source tree at " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", cmake_dir, "-j", jobs, "--target", "vinoc_perfbench"]]
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "vinoc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    program = build(build_root)
    command = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(build_root, "runs"),
        "--golden-dir", os.path.join(HERE, "golden"),
    ]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    if args.write_golden:
        command.append("--write-golden")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
