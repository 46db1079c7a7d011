#!/usr/bin/env python3
"""Regenerate the figures in schedbench/README.md.

    python3 schedbench/figures.py [--seeds 1-10] [--trace 0|1]

Runs schedbench/run.py once per workload and seed, for BENCHMARK.json's
run_seconds, then prints for every metric the median of its values, the
quartiles' distance as a share of the median (statistics.quantiles, n=4),
and each workload's failed share.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-single", "dse-batch", "serve-trace", "anneal-search")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    for workload in WORKLOADS:
        values = {}
        units = {}
        shares = set()
        for seed in seed_list(args.seeds):
            result = run(workload, seed, seconds, args.trace)
            if not result["correct"]:
                raise SystemExit("%s seed %d: output checks failed" % (workload, seed))
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%s seed %d: %s" % (workload, seed, json.dumps(result["metrics"])), flush=True)
        print("## %s (failed share %s)" % (workload, sorted(shares)))
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            print("%-34s median %12.6g %-9s spread %.4f" % (name, med, units[name], spread))


if __name__ == "__main__":
    main()
