#!/usr/bin/env python3
"""Build and run the scheduler-stack benchmark from the repository root.

    python3 schedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 schedbench/run.py --self-test

The first call configures and builds the benchmark (and the libraries it
links, from ../src) in Release mode under the build directory; later calls
only check that build is current.  Build output goes to stderr, so the
benchmark's own output, ending in one JSON line, is all of stdout.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-single", "dse-batch", "serve-trace", "anneal-search")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "schedbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("schedbench: library sources not found at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("schedbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's statistics")
    args = parser.parse_args()

    if args.self_test:
        binary = build("stats_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("schedbench")
    if binary is None:
        return 1
    # Stores and Chrome traces of the previous run go before this one.
    work_dir = os.path.join(os.path.dirname(build_dir()), "schedbench-work")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("schedbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
