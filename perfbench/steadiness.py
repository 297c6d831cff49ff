#!/usr/bin/env python3
"""Steadiness report of the replay benchmark.

Runs perfbench/run.py ten times on every workload of BENCHMARK.json, with
seeds 1 to 10, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.

- steady: the spread is under a third of the bound.
- within bound: the spread is under the bound but not under a third of it.
- TOO NOISY: the spread exceeds the bound.

    python3 perfbench/steadiness.py

The exit code is 1 when a run fails or a spread exceeds its bound.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, host, result, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            code, host, result, err = run_once(workload, seed, spec["run_seconds"])
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})\n{err[-2000:]}")
                ok = False
                continue
            if seed == SEEDS[0]:
                print(host)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        print(f"\n{workload} ({len(values['setup_s'])} runs)")
        print(f"{'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            spread = (q3 - q1) / abs(mid) if mid else 0.0
            bound = bounds[name]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"{name:22s} {mid:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:6.2f}  {verdict}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
