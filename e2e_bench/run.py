#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark binary (and the program libraries it links) from
source into .bench_build/ at the repository root, then runs one workload:

    python3 e2e_bench/run.py --workload e2e_device --seed 1 --seconds 20 --trace 0

An untraced run splits the measuring window over three fresh processes of
the binary and reports the median of each metric over them. The reports
go to stdout; the last line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 runs one process, reports the
per-layer metrics instead of the end-to-end ones and writes the bench span
log to .bench_build/traces/. An unknown flag, workload or malformed value
exits 2 with usage text; --help prints usage without building or running.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("e2e_device", "e2e_fleet", "e2e_tuner")
RUN_TIMEOUT_S = 175
UNTRACED_PROCESSES = 3


def _int_in(lo, hi):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} outside {lo}..{hi}")
        return value
    return parse


def make_parser():
    parser = argparse.ArgumentParser(
        prog="e2e_bench/run.py",
        description="Run one end-to-end benchmark workload.",
        allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_int_in(0, 2**63 - 1), default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=_int_in(1, 600), default=10,
                        help="measuring window per run (default 10)")
    parser.add_argument("--trace", type=_int_in(0, 1), default=0,
                        help="1: per-layer traced run (default 0)")
    return parser


def build():
    """Configures once and builds the benchmark binary; False on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        print("e2e_bench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", BUILD, "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print("e2e_bench: build failed", file=sys.stderr)
            return False
    return True


def run_binary(args, seconds, trace_dir, deadline):
    """One binary run; returns (report lines, parsed JSON result)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--trace-out", trace_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise RuntimeError(f"binary exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def combine(results):
    """Median of each metric over the processes; check tallies summed."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv):
    args = make_parser().parse_args(argv)
    if not build():
        return 1
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # Untraced runs split the window over fresh processes: each process
    # gets its own memory placement, whose speed effect one process
    # cannot average out. The traced run is one process.
    processes = 1 if args.trace else min(UNTRACED_PROCESSES, args.seconds)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    try:
        for _ in range(processes):
            lines, result = run_binary(args, args.seconds // processes,
                                       trace_dir, deadline)
            print("\n".join(lines))
            results.append(result)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, IndexError) as error:
        print(f"e2e_bench: {error}", file=sys.stderr)
        return 1
    combined = combine(results)
    if processes > 1:
        for name, metric in combined["metrics"].items():
            print(f"  {name:30s} {metric['value']:16.6g} {metric['unit']} "
                  f"(median over {processes} processes)")
        print(f"  {'failed_share':30s} "
              f"{combined['failed'] / combined['attempted']:16.6g} ratio "
              f"({combined['failed']} of {combined['attempted']} checks "
              f"failed)")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
