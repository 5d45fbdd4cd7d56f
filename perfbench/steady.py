#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports, for every
end-to-end metric, the median and quartiles of its values and the spread
(distance between the first and third quartile, as a share of the median)
next to the metric's bound in BENCHMARK.json. This is the script the bounds
were set with.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--json-out FILE]

Run from the root of a checkout. Each run uses its own seed
(first-seed, first-seed + 1, ...). A spread above the bound fails the check
(exit code 1); setup_s is reported but not held to its bound, since only its
median is compared between runs of two commits. The share of failed
operations must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json-out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    report = {}
    for workload in workloads:
        values = {}
        failed_shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"])
            failed_shares.add((result["failed"], result["attempted"])
                              if result["failed"] else 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: answers were wrong")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        if len(failed_shares) > 1:
            print(f"{workload}: the failed share differs between runs")
            ok = False
        report[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            held = name == "setup_s" or spread <= bound
            ok = ok and held
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound,
                                      "values": vals}
            print(f"  {workload:18s} {name:26s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
                  f"bound {bound:5.2f} {'ok' if held else 'TOO WIDE'}",
                  flush=True)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
