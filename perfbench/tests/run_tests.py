#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/run_tests.py

Run from the root of a checkout. Builds the benchmark, then:
  1. runs perfbench_selftest: the reference top-k and containment checker
     against hand-built cases, and corrupted answers (a swapped id, a
     flipped fingerprint bit) that must be caught and counted as failed;
  2. checks the driver's metric table against BENCHMARK.json: the same
     workloads, and the same metrics with the same units in each mode.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def check_metric_table(table, spec):
    """The driver's table must equal BENCHMARK.json's: the same workloads,
    and per mode the same metric names, each with the same unit. Every
    workload prints every metric of its mode."""
    problems = []
    if table["workloads"] != [w["name"] for w in spec["workloads"]]:
        problems.append("the driver's workloads differ from BENCHMARK.json's")
    for mode in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[mode]}
        printed = table[mode]
        for name in sorted(set(printed) - set(declared)):
            problems.append(f"the driver prints {name}, which BENCHMARK.json "
                            f"does not declare")
        for name in sorted(set(declared) - set(printed)):
            problems.append(f"{name} is declared but the driver never prints it")
        for name in sorted(set(declared) & set(printed)):
            if printed[name] != declared[name]:
                problems.append(f"{name}: unit {printed[name]} vs "
                                f"{declared[name]}")
    return problems


def main():
    build_dir = run.build(os.getcwd(), targets=["perfbench_driver",
                                                "perfbench_selftest"])
    failures = 0
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode:
        print("FAIL: perfbench_selftest")
        failures += 1
    listed = subprocess.run([os.path.join(build_dir, "perfbench_driver"),
                             "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for problem in check_metric_table(json.loads(listed.stdout), spec):
        print("FAIL: " + problem)
        failures += 1
    print("perfbench tests: " + ("all pass" if failures == 0
                                 else f"{failures} failed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
