#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds 15] [--json out.json]

Runs perfbench/run.py once per (workload, seed), untraced, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile of the values (Python's
statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--json", help="write every value to this file")
    args = parser.parse_args()

    values = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT OUTPUT "
                      f"({result['failed']} of {result['attempted']} "
                      "operations failed)", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            line = ", ".join(f"{k}={m['value']:.6g}"
                             for k, m in result["metrics"].items())
            print(f"{workload} seed {seed} ({time.monotonic() - t0:.1f} s): "
                  f"{line}", flush=True)

    print(f"\n{'workload':16} {'metric':26} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:16} {name:26} {med:12.6g} "
                  f"{(q3 - q1) / med:8.4f} {bounds.get(name, 0):6.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
