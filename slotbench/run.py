#!/usr/bin/env python3
"""Slot-ledger benchmark: build and run one workload, print one JSON result.

Builds this directory's CMake project (the resmon library sources from
../src plus the slot_ledger driver) into .bench_build/slotbench under the
checkout root, runs slot_ledger, and prints its result object as the last
line of stdout. Build output and diagnostics go to stderr.

    python3 slotbench/run.py --workload paper_fleet --seed 1 --seconds 25 --trace 0

Exits non-zero without printing a result when the sources are missing, the
build fails, or the run fails or times out.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "slotbench")
BINARY = os.path.join(BUILD, "slot_ledger")
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_fleet", "ingest_dense", "forecast_heavy")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"slotbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"resmon sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", BUILD, "--target", "slot_ledger",
                "-j", "2"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"slot_ledger did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"slot_ledger exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("slot_ledger printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
