#!/usr/bin/env python3
"""Steadiness check for panobench.

Run from the root of a checkout:

    python3 panobench/steady.py --runs 10 [--workloads batch_cold,...] [--first-seed 1]

Builds once, then runs every chosen workload `--runs` times untraced,
each run with its own seed (first-seed, first-seed+1, ...), for the
`run_seconds` BENCHMARK.json fixes. For each end-to-end metric it prints
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
against the metric's bound: `ok` below a third of the bound, `wide`
within it, `OVER` beyond it. It also prints each workload's failed
share, which must be identical in every run. Exits non-zero when any
run fails, any spread is OVER, or the failed share varies.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the sibling run.py)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bins = run.build()
    status = 0
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = []
        for i in range(args.runs):
            seed = args.first_seed + i
            done = run.run_once(bins, w, seed, seconds, 0, capture=True)
            lines = done.stdout.decode().strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit code %d" % (w, seed, done.returncode))
                status = 1
                continue
            r = json.loads(lines[-1])
            shares.append((r["failed"], r["attempted"]))
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            print("%s seed %d: attempted %d failed %d correct %s" % (
                w, seed, r["attempted"], r["failed"], r["correct"]), flush=True)
        ratios = {f / a for f, a in shares}
        if len(ratios) > 1:
            print("%s: failed share varies: %s" % (w, shares))
            status = 1
        print("%-13s %-20s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "OVER"
                status = 1
            print("%-13s %-20s %12.5g %12.5g %12.5g %8.4f %6.3f %s" % (
                w, name, med, q1, q3, spread, bound, verdict), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
