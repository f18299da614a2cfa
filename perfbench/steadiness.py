#!/usr/bin/env python3
"""A/A steadiness check for the benchmark.

    python3 perfbench/steadiness.py [--sets 1|2]

Runs every workload of BENCHMARK.json ten times per set for its run_seconds,
alternating workloads so drift in the machine falls on all of them alike,
each run with its own seed (1000 + run index, the same seeds in every set).
For every end-to-end metric it prints the first set's median and quartiles
(statistics.quantiles(n=4)), each set's spread (Q3 - Q1) / median against
the metric's bound, and, with --sets 2, how far the second set's median
moved from the first's in the metric's worse direction.  A row is marked:

    ok      every spread below a third of the bound (and drift within the bound)
    wide    every spread within the bound, one above a third of it
    FAIL    a spread or the drift beyond the bound

Exit status is 1 if any row FAILs or any run is incorrect.  Run it from the
root of a checkout; the first run builds (see run.py).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("check failed"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {}  # (set, workload, metric) -> [values]
    incorrect = 0
    for s in range(args.sets):
        for r in range(RUNS):
            for w in workloads:
                res = run_once(w, SEED_BASE + r, seconds)
                if not res["correct"]:
                    incorrect += 1
                for m in metrics:
                    v = res["metrics"][m["name"]]["value"]
                    values.setdefault((s, w, m["name"]), []).append(v)
                print(f"set {s} run {r} {w}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics),
                    flush=True)

    failed = incorrect > 0
    print()
    print(f"{'workload':8} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spreads':>15} {'bound':>6} {'drift':>8}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            q1, med, q3 = statistics.quantiles(values[(0, w, name)], n=4)
            spreads = []
            for s in range(args.sets):
                sq1, smed, sq3 = statistics.quantiles(values[(s, w, name)], n=4)
                spreads.append((sq3 - sq1) / smed if smed else 0.0)
            spread = max(spreads)
            drift = None
            if args.sets == 2:
                med2 = statistics.median(values[(1, w, name)])
                worse = med2 - med if m["better"] == "lower" else med - med2
                drift = worse / med if med else 0.0
            bad = spread > bound or (drift is not None and drift > bound)
            verdict = "FAIL" if bad else ("ok" if spread <= bound / 3 else "wide")
            failed = failed or bad
            drift_text = f"{drift:8.4f}" if drift is not None else f"{'-':>8}"
            spread_text = " ".join(f"{x:7.4f}" for x in spreads)
            print(f"{w:8} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread_text:>15} "
                  f"{bound:6.3f} {drift_text}  {verdict}")
    if incorrect:
        print(f"{incorrect} run(s) reported correct = false")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
