#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program from source, run one workload.

    python3 perfbench/run.py --workload adders_j1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # end-to-end metrics of every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer metrics of every workload

Run it from the repository root. The program (lls_perfbench) and its library layers are
built with CMake into .bench_build/perfbench; workload inputs, outputs and
trace files go to .bench_build/work/<workload>. The last line of standard
output is the program's JSON result: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "lls_perfbench")
WORKLOADS = ["adders_j1", "control_j4", "table2_batch"]


def build():
    """Configures (once) and builds lls_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources not found at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))
    return BINARY


def invoke(workload, seed, seconds, trace, work_dir=None, quick=False):
    """Runs lls_perfbench once; returns (exit code, stdout text)."""
    work_dir = work_dir or os.path.join(WORK_DIR, workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The JSON object on the last line of the program's output."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload != "all":
        code, out = invoke(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    # Every workload in turn, then one table of every metric by name.
    status, rows = 0, []
    for workload in WORKLOADS:
        code, out = invoke(workload, args.seed, args.seconds, args.trace)
        sys.stderr.write(out)
        result = result_of(out)
        if code != 0 or result is None:
            status = 1
        if result is None:
            continue
        rows.append((workload, "fail_frac", result["failed"] / result["attempted"], "ratio"))
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
    for workload, name, value, unit in rows:
        print("%-14s %-42s %22.10g %s" % (workload, name, value, unit))
    return status


if __name__ == "__main__":
    sys.exit(main())
