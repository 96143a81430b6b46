#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the model library from src/ plus the workload runner) with
CMake into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
later calls only check that the build is current. The workload runs in
a single child process with the pool capped at two threads. The
child prints more metrics than the benchmark tracks; this script's
last line is the child's JSON result cut down to the metrics that
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1), with setup_s the median over that run and twenty
set-up-only launches, half before it and half after. Exits non-zero,
printing no result, when BENCHMARK.json or the model sources are
missing, the build fails, the workload fails, it exceeds its time
limit or its result lacks a listed metric.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_artifacts", "chiplet_sim", "design_sweep", "server_mix")
RUN_TIMEOUT_S = 150
SETUP_LAUNCHES = 41
# Environment knobs of the program that would change what is measured.
SCRUBBED_ENV = ("ENA_TRACE", "ENA_METRICS", "ENA_SWEEP_JOURNAL",
                "ENA_FAULT_INJECT", "ENA_TASK_RETRIES", "ENA_BENCH_CSV_DIR")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def listed_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the run."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return [(m["name"], m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then bring the targets up to date (serialized by
    a lock so concurrent runs in one checkout cannot race the build)."""
    if not (ROOT / "src" / "core" / "ena.hh").is_file():
        fail(f"model sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", "4"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def launch(args, bdir, tag, setup_only):
    """Run the workload runner once; returns its stdout lines."""
    work = bdir / "work" / f"{args.workload}-{os.getpid()}-{tag}"
    traces = bdir / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["ENA_THREADS"] = "2"
    cmd = [str(bdir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           # Relative to the child's working directory (the repository
           # root) so the server's Unix socket path stays short.
           "--work-dir", os.path.relpath(work, ROOT),
           "--trace-dir", os.path.relpath(traces, ROOT),
           "--setup-only", "1" if setup_only else "0"]
    try:
        # Same clock as the child's steady_clock: setup_s starts here.
        cmd += ["--launch-ns", str(time.monotonic_ns())]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("the workload printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    return lines[:-1], result


def run_workload(args, bdir):
    # Set up several times: SETUP_LAUNCHES - 1 set-up-only processes,
    # half before the measured run and half after it, plus the measured
    # run itself; setup_s is their median. A ~2 ms figure made mostly of
    # process start needs many launches to hold still.
    def setup_launches(first, count):
        values = []
        for k in range(first, first + count):
            _, r = launch(args, bdir, k, setup_only=True)
            values.append(r["metrics"]["setup_s"]["value"])
        return values

    half = (SETUP_LAUNCHES - 1) // 2
    setups = setup_launches(0, half) if not args.trace else []
    lines, result = launch(args, bdir, "run", setup_only=False)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        setups += setup_launches(half, SETUP_LAUNCHES - 1 - half)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append(f"  setup_s over {len(setups)} launches: " +
                     " ".join(f"{s:.6f}" for s in setups))
    metrics = {}
    for name, unit in listed_metrics(args.trace):
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit:
            sys.stderr.write("\n".join(lines) + "\n")
            fail(f"{args.workload} reported no {name} in {unit}")
        metrics[name] = m
    result["metrics"] = metrics
    print("\n".join(lines))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    bdir = build_dir()
    if args.selftest:
        build(bdir)
        sys.exit(subprocess.run([str(bdir / "perfbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    listed_metrics(args.trace)
    build(bdir)
    run_workload(args, bdir)


if __name__ == "__main__":
    main()
