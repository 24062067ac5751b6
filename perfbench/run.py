#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls only check that the build is current.
The benchmark binary prints human-readable tables on standard error and one
JSON result object as the last line of standard output. This script checks
that object against BENCHMARK.json (every end-to-end metric with --trace 0,
every per-layer metric with --trace 1, units as declared) and prints it
again as its own last line. It exits non-zero without printing a result when
the build, the run or that check fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))
# The binary's own run is bounded by its --seconds loops; this only guards
# against a hang, so a run always ends within three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
        return run_quiet(["cmake", "--build", BUILD, "--target", target,
                          "-j", JOBS])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result, or None (with a note) if malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        log("last output line is not JSON")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"unexpected result keys {sorted(result)}")
        return None
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        log(f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        return None
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            log(f"metric {name} is malformed: {m}")
            return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        log("no operation attempted")
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["crawl", "sharded-crawl", "analytics"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            log("build failed")
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build("focus_perfbench"):
        log("build failed")
        return 1
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "focus_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    result = check_result(lines[-1], args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
