#!/usr/bin/env python3
"""Repeat mode: run each workload N times and summarise every end-to-end metric.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10                 # development seeds
    python3 perfbench/repeat.py --runs 10 --held-out      # held-out seeds
    python3 perfbench/repeat.py --runs 5 --workloads poisson-d-base --save a.json
    python3 perfbench/repeat.py --compare a.json b.json

Every run uses BENCHMARK.json's command and run_seconds, untraced.
Seed i of a set is `base + i`, with `base` the development or held-out
seed from perfbench/seeds.json. Workloads are interleaved run by run, so
drift in host load falls on all of them. For each end-to-end metric the
summary gives the median, the first and third quartiles (as
statistics.quantiles(values, n=4) computes them), and the relative
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
`--compare` checks that the second set's median is no worse than the
first's by more than the bound, for every metric and workload.

A run that fails its output checks still prints its metrics; its failure
lines are shown, and it makes the script exit non-zero. Its host-time
metrics (units s, ms and 1/s) are left out of the summary and the
comparison; every other metric, completed_ratio included, keeps it. A
run that prints no result at all counts as completed_ratio 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_TIME_UNITS = ("s", "ms", "1/s")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    """One run as {"correct": bool, "metrics": {name: value}}."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        result = {"correct": False, "metrics": {"completed_ratio": {"value": 0.0}}}
    correct = proc.returncode == 0 and result["correct"]
    if not correct:
        failed = [l for l in lines if "FAILED" in l] or proc.stderr.strip().splitlines()[-5:]
        print(f"{workload} seed {seed}: exit code {proc.returncode}", *failed, sep="\n  ")
    return {"correct": correct, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def values(spec, runs):
    """The metric's values over the runs that count for it."""
    host_time = spec["unit"] in HOST_TIME_UNITS
    return [
        r["metrics"][spec["name"]]
        for r in runs
        if spec["name"] in r["metrics"] and (r["correct"] or not host_time)
    ]


def summarise(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def report(bench, results):
    within = True
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs, {sum(not r['correct'] for r in runs)} failed)")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            vals = values(spec, runs)
            if len(vals) < 2:
                print(f"  {name:<26} fewer than 2 runs count")
                continue
            med, q1, q3, spread = summarise(vals)
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag, within = "OVER BOUND", False
                elif spread > bound / 3:
                    flag = "over bound/3"
            print(f"  {name:<26} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {bound:>6} {flag}")
    return within


def compare(bench, first, second):
    ok = True
    for workload in first:
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a, b = values(spec, first[workload]), values(spec, second[workload])
            if not a or not b:
                print(f"  {workload:<15} {name:<22} no runs count in one of the sets")
                ok = False
                continue
            a, b = statistics.median(a), statistics.median(b)
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok &= worse <= bound
            print(f"  {workload:<15} {name:<22} {a:>14.4f} {b:>14.4f} {worse:>+8.4f} {bound:>5} {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--held-out", action="store_true", help="use the held-out seed set")
    ap.add_argument("--save", help="write the raw results to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        first, second = (load_json(p) for p in args.compare)
        sys.exit(0 if compare(bench, first, second) else 1)

    seeds = load_json(os.path.join(HERE, "seeds.json"))
    base = seeds["held_out"] if args.held_out else seeds["dev"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            results[w].append(run_once(bench, w, base + i))
            print(f"run {i + 1}/{args.runs} {w} seed {base + i} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    within = report(bench, results)
    failed_runs = sum(not r["correct"] for runs in results.values() for r in runs)
    if failed_runs:
        print(f"\n{failed_runs} run(s) failed; their host-time metrics are left out of the summary")
    sys.exit(0 if within and not failed_runs else 1)


if __name__ == "__main__":
    main()
