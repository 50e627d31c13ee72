#!/usr/bin/env python3
"""panobench entry point.

Run from the root of a checkout:

    python3 panobench/run.py --workload batch_cold --seed 1 --seconds 40 --trace 0
    python3 panobench/run.py --smoke

The first form builds `panorama` and `panoramad` from the checkout's
sources and the benchmark crate next to this file (release profile,
offline, into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
workload. The last line of standard output is the run's JSON result;
build output and diagnostics go to standard error.

`--smoke` runs every workload with `--seconds 1` (an untraced run still
takes its 1000 latency samples), untraced and traced, with all output
checks, and fails unless each run is correct, failed no
operation and printed exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_cold", "service_warm"]


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("panobench: no Cargo.toml at %s: run from a full checkout" % ROOT)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--bin", "panorama", "--bin", "panoramad"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("panobench: build failed: %s" % " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return {name: os.path.join(release, name) for name in ("panorama", "panoramad", "panobench")}


def run_once(bins, workload, seed, seconds, trace, capture=False):
    work = os.path.join(ROOT, ".panobench_work", "%s-%d" % (workload, os.getpid()))
    cmd = [
        bins["panobench"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--panoramad", bins["panoramad"],
        "--panorama", bins["panorama"],
        "--work-dir", work,
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done


def smoke(bins):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            done = run_once(bins, w, 1, 1, trace, capture=True)
            lines = done.stdout.decode().strip().splitlines()
            problem = None
            if done.returncode != 0 or not lines:
                problem = "exit code %d" % done.returncode
            else:
                r = json.loads(lines[-1])
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problem = "correct=%s attempted=%d failed=%d" % (r["correct"], r["attempted"], r["failed"])
                elif sorted(r["metrics"]) != wanted[trace]:
                    problem = "metric names differ from BENCHMARK.json"
            print("%-13s trace=%d %s" % (w, trace, problem or "ok"))
            ok = ok and problem is None
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required (or --smoke)")
    bins = build()
    if args.smoke:
        return smoke(bins)
    return run_once(bins, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
