#!/usr/bin/env python3
"""Seconds-long smoke test of the fenix_perfbench binary.

Runs every workload of BENCHMARK.json in both modes with --smoke (shrunken
workloads) and checks the result line: exactly the four keys, a correct run
with no failures, and exactly the metric names and units BENCHMARK.json
declares for that mode. Also checks that malformed arguments are refused.

    python3 perfbench/tests/smoke_check.py <fenix_perfbench binary> <BENCHMARK.json>
"""
import json
import subprocess
import sys


def run(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def check_result(spec, workload, trace, code, stdout, stderr):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}; stderr: {stderr.strip()[-500:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return problems + [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"undeclared metrics {extra}")
    for name, entry in got.items():
        if name in want and entry.get("unit") != want[name]:
            problems.append(f"{name}: unit {entry.get('unit')} != {want[name]}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    return [f"{workload} --trace {trace}: {p}" for p in problems]


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out, err = run(binary, workload, trace)
            problems += check_result(spec, workload, trace, code, out, err)
            print(f"{workload} --trace {trace}: exit {code}")
    for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                ["--workload", "vpn_fig10", "--seed", "-1", "--seconds", "1", "--trace", "0"],
                ["--workload", "vpn_fig10", "--seed", "99999999999999999999", "--seconds", "1",
                 "--trace", "0"],
                ["--workload", "vpn_fig10", "--seed", "1", "--seconds", "0", "--trace", "0"],
                ["--workload", "vpn_fig10", "--seed", "1", "--seconds", "1", "--trace", "2"],
                ["--workload", "vpn_fig10"]):
        done = subprocess.run([binary] + bad, capture_output=True, text=True, timeout=60)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"accepted bad arguments {bad}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
