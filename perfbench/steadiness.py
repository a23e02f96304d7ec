#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Runs each workload --runs times (untraced, seeds 1..runs unless --seed-base
moves them), one run at a time, and prints for every end-to-end metric its
median, first and third quartile (Python's statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json. A spread above the bound fails; above a third of the bound
it is flagged, since a second set of runs must land within the bound too.
setup_s is judged like every other metric.

Exit status: 0 when every judged spread is within its bound and every run
passed its checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(out.stderr[-2000:])
        return None, None
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return result, meta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.seed_base + i
            result, meta = run_once(workload, seed, args.seconds)
            if result is None:
                print("%s seed %d: run FAILED" % (workload, seed))
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s; steal_share=%s" % (workload, seed, ", ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items()),
                meta.get("steal_share", "?")), flush=True)
        print("\n%s (%d runs)" % (workload, len(next(iter(values.values())))))
        print("  %-28s %12s %12s %12s %8s %7s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = values[name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            if spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            print("  %-28s %12.6g %12.6g %12.6g %7.2f%% %6.1f%%  %s" % (
                name, med, q1, q3, 100 * spread, 100 * bound, verdict))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
