#!/usr/bin/env python3
"""Benchmark entry point: build the repository and the driver, run one workload.

    python3 perfbench/run.py --workload curve|layout|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures perfbench/ (which
takes in the repository through its own CMakeLists) under $CARGO_TARGET_DIR
(default .bench_build) and builds the driver and bflyd, Release; later runs
only let CMake confirm the build is current.  Build output goes to stderr.

The driver runs the workload in a fresh process and a fresh scratch
directory inside the build directory, and removes it; with --trace 1 it also
writes its spans to <build dir>/traces/<workload>-seed<N>.trace.json.  An
untraced run also spawns the driver SETUP_RUNS times with --setup-only, half
of them before the measured run and half after, so a slow spell of the
machine meets only some of them: each fresh process reports the time from
its spawn to its first timed operation, and setup_s is the median.  Stdout
carries the
environment record, the sample count behind every percentile, any check
failures, and, as its last line, one JSON object with exactly "correct",
"attempted", "failed" and "metrics".

Exit codes: 0 with a result line; 1 when the build or the driver fails (no
result line); 2 on bad arguments or when run outside a checkout of the
repository.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("curve", "layout", "serve")
DRIVER_TIMEOUT_S = 170  # set-up runs and the measured run together
SETUP_RUNS = 10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Builds the driver and bflyd; returns the driver's path."""
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return None
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench_driver"]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return build_dir / "perfbench_driver"


def run_driver(cmd, root, timeout_s):
    """Runs the driver in its own process group; returns its result object,
    with "stray" set when a process it started outlived it, or None."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: driver exceeded {timeout_s} s and was killed")
        return None
    # Anything still alive in the driver's process group (a daemon it
    # failed to reap) is a failure; stop it either way.
    stray = True
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        stray = False
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"run.py: driver exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: driver printed no result line")
        return None
    result["stray"] = stray
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"run.py: {root} is not a checkout of the repository (no CMakeLists.txt / src)")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(root, build_dir)
    if driver is None:
        return 1

    scratch = build_dir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    before = set(os.listdir(scratch))
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch-base", str(scratch)]
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    setups = []

    def set_up(count):
        for _ in range(count):
            spawned_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as the driver's clock
            setups.append(run_driver(cmd + ["--setup-only", str(spawned_ns)], root,
                                     deadline - time.monotonic()))
        return None not in setups

    measured = list(cmd)
    if args.trace:
        trace_out = build_dir / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
        measured += ["--trace-out", str(trace_out)]
    elif not set_up(SETUP_RUNS // 2):
        return 1
    result = run_driver(measured, root, deadline - time.monotonic())
    if result is None or (not args.trace and not set_up(SETUP_RUNS - SETUP_RUNS // 2)):
        return 1

    runs = setups + [result]
    errors = [e for r in runs for e in r.get("errors", [])]
    leftovers = sorted(set(os.listdir(scratch)) - before)
    if leftovers:
        errors.append(f"scratch files left behind: {leftovers}")
        for name in leftovers:
            shutil.rmtree(scratch / name, ignore_errors=True)
    if any(r["stray"] for r in runs):
        errors.append("a process the driver started was still running")
    correct = all(r["correct"] and not r["stray"] for r in runs) and not leftovers
    metrics = result["metrics"]
    if setups:
        metrics = {"setup_s": {"value": statistics.median(
            r["metrics"]["setup_s"]["value"] for r in setups), "unit": "s"}, **metrics}

    print("env " + json.dumps(result.get("env", {}), sort_keys=True))
    samples = dict(result.get("samples", {}))
    if setups:
        samples["setup_s"] = len(setups)
    print("samples " + json.dumps(samples, sort_keys=True))
    for e in errors:
        print("check failed: " + e)
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in runs),
                      "failed": sum(int(r["failed"]) for r in runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
