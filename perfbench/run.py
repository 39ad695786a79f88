"""Benchmark entry point: runs each workload in a fresh interpreter.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --workload all the workloads run one
after another, each in its own process; each prints its own result line and
the last line sums them, with metrics named "<workload>/<metric>".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("certify", "norms", "search", "catalog")
TIMEOUT_S = 175


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("workload %s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="flagcurv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flagcurv", "__init__.py")):
        raise SystemExit("no flagcurv sources under %s" % os.path.join(ROOT, "src"))

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, **result}), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"]["%s/%s" % (workload, key)] = val
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
