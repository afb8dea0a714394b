#!/usr/bin/env python3
"""Reference benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench_runner from the
checkout's sources into .bench_build/perfbench (incremental after the
first run), runs the workload in one single-threaded child process, and
prints a context line (machine fingerprint, failed_share) followed by one
JSON result line: the `end_to_end` metrics of BENCHMARK.json with
--trace 0, its `per_layer` metrics with --trace 1. A per-layer metric of a
layer the workload never calls reads 0. Exits non-zero when the build
fails, a check fails, or a metric is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(args, scale):
    """Runs the runner; returns (exit code, raw result dict or None)."""
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", scale]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    raw = json.loads(lines[-1]) if lines else None
    return proc.returncode, raw


def select(raw, specs, fill_missing):
    """The metrics `specs` names, in order, and the names that were missing,
    mislabelled or not finite."""
    out, bad = {}, []
    for spec in specs:
        got = raw["metrics"].get(spec["name"])
        if got is None and fill_missing:
            got = {"value": 0.0, "unit": spec["unit"]}
        if (got is None or got["unit"] != spec["unit"]
                or not math.isfinite(got["value"])):
            bad.append(spec["name"])
            continue
        out[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return out, bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: shrunk inputs for the self-test")
    parser.add_argument("--raw", action="store_true",
                        help="print the runner's own metrics unfiltered")
    args = parser.parse_args()

    spec = load_spec()
    try:
        build()
        code, raw = run_workload(args, args.scale)
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1
    if raw is None:
        print("perfbench: runner printed no result", file=sys.stderr)
        return 1
    if args.raw:
        print(json.dumps(raw))
        return code
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, bad = select(raw, specs, fill_missing=bool(args.trace))
    correct = raw["correct"] and code == 0 and not bad
    for error in raw.get("errors", []):
        print("perfbench: check failed: " + error, file=sys.stderr)
    for name in bad:
        print("perfbench: metric missing or mislabelled: " + name,
              file=sys.stderr)
    print("# context " + json.dumps(raw["context"]))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
