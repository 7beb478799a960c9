#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload ycsb-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The engine (../src) and the benchmark
binary are compiled into .bench_build/ on first use. Every line the binary
prints is passed through; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The exit code is non-zero when the build fails, the binary's
output checks fail, or a listed metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ycsb-hot", "ycsb-spill", "tpcc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return False
    # The percentile and ratio code every reported number depends on.
    test = subprocess.run([str(BUILD / "perfbench_stats_test")],
                          stdout=sys.stderr)
    return test.returncode == 0


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    cmd = [str(BUILD / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans", str(BUILD / f"spans-{a.workload}-{a.seed}.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{a.workload} seed {a.seed} timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{a.workload} seed {a.seed}: no result (exit {run.returncode})")
        return 1

    names = listed_metrics(a.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"benchmark did not report {', '.join(missing)}")
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    if run.returncode != 0 or not result["correct"]:
        log(f"{a.workload} seed {a.seed}: output checks failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
