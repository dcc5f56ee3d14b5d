#!/usr/bin/env python3
"""Builds the end-to-end benchmark (Release) and runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload kv-wire --seed 1 --seconds 30 --trace 0

The first call configures and compiles the Jiffy libraries and the
benchmark driver into .bench_build/e2ebench; later calls reuse that build
(make only recompiles what changed). Build output goes to stderr, so the
last line of stdout is the driver's JSON result. The exit code is the
driver's: non-zero when the build fails or an output check fails.

With --trace 1 the driver prints the per-layer metrics its workload
measures; this script completes them from BENCHMARK.json, in its order, and
adds every layer the workload never calls as 0.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "jiffy_e2e")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("kv-wire", "elastic", "job-churn")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the driver; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "jiffy_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def complete_layers(line):
    """Returns the driver's JSON line with every per-layer metric of
    BENCHMARK.json, or None when the driver named one that is not listed
    there or gave it another unit."""
    result = json.loads(line)
    measured = result["metrics"]
    metrics = {}
    for spec in json.load(open(SPEC))["per_layer"]:
        m = measured.pop(spec["name"], {"value": 0, "unit": spec["unit"]})
        if m["unit"] != spec["unit"]:
            print("e2ebench: %s has unit %s, BENCHMARK.json says %s"
                  % (spec["name"], m["unit"], spec["unit"]), file=sys.stderr)
            return None
        metrics[spec["name"]] = m
    if measured:
        print("e2ebench: not in BENCHMARK.json: %s" % ", ".join(measured),
              file=sys.stderr)
        return None
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD, args.workload + "_trace.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if args.trace and proc.returncode == 0 and lines:
        lines[-1] = complete_layers(lines[-1])
        if lines[-1] is None:
            return 1
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
