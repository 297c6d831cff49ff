#!/usr/bin/env python3
"""Builds the FENIX replay benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload vpn_fig10 --seed 1 --seconds 20 --trace 0

The libraries and the fenix_perfbench binary are built in Release mode under
.bench_build/perfbench (incrementally after the first run), with the build
log on stderr. The binary's output is passed through; its last
stdout line is the result object
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is the binary's, or 2 when the build fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TARGET = "fenix_perfbench"


def build() -> Path:
    """Configures and builds fenix_perfbench; returns the binary path. Both steps
    are incremental, so after the first run they take about a second."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", TARGET, "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)
    return BUILD / TARGET


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
