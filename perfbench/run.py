#!/usr/bin/env python3
"""Benchmark entry point for the graph-search server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the benchmark driver
from source (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload and prints its result as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are every end-to-end metric, with --trace 1 every per-layer
metric. The printed metrics are checked against BENCHMARK.json (the same
names, each with its unit) before they are printed. Scratch files go to
.bench_out/<workload>/; the traced run leaves its spans there.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, targets=("perfbench_driver", "gdim_tool")):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def check_result(result, spec, traced):
    table = {m["name"]: m["unit"]
             for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    missing = set(table) - set(result["metrics"])
    if missing:
        fail(f"metrics {sorted(missing)} were not measured")
    for name, metric in result["metrics"].items():
        if name not in table:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric.get("unit") != table[name]:
            fail(f"metric {name} has unit {metric.get('unit')}, "
                 f"BENCHMARK.json says {table[name]}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(os.path.join(root, "src")) or \
            not os.path.exists(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.exists(spec_path):
        fail("run from the root of a checkout that holds the program sources")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = build(root)
    out_dir = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tool", os.path.join(build_dir, "graphdim", "gdim_tool"),
           "--out-dir", out_dir]
    # The driver and the servers it starts share one process group, so a
    # timeout can stop all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for name in os.listdir(out_dir):
            if not name.startswith("spans_") and not name.endswith(".log"):
                os.remove(os.path.join(out_dir, name))
    if proc.returncode != 0:
        fail(f"{args.workload} failed (exit {proc.returncode})")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("the driver printed no result")
    result = json.loads(lines[-1])
    check_result(result, spec, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
