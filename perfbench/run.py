#!/usr/bin/env python3
"""Benchmark entry point: build the driver from source, run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the library from src/ plus the driver) into .bench_build/perfbench;
later calls only re-check the build.  Workload settings come from
perfbench/workloads.json.  The driver's output is passed through; its last
line is the JSON result.  Exits non-zero, without a result line, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build(build_type):
    """Configure (once) and build the driver; build output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=" + build_type],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "ahbp_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "ahbp_perfbench"


def workload_flags(name, spec):
    flags = ["--workload", name, "--model", spec["model"],
             "--presets", ",".join(spec["presets"]),
             "--items", str(spec["items_per_master"])]
    if spec.get("sweep"):
        flags.append("--sweep")
        for key, values in spec["axes"].items():
            flags += ["--axis", key + "=" + values]
        flags += ["--warmup-cycles", str(spec["warmup_cycles"]),
                  "--jobs", str(spec["jobs"])]
    return flags


def main():
    design = json.loads((BENCH_DIR / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(design["workloads"]))
    ap.add_argument("--seed", type=int, default=design["default_seed"])
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build(design["build_type"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += workload_flags(args.workload, design["workloads"][args.workload])
    if args.trace:
        cmd += ["--spans",
                str(BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
