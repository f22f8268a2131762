#!/usr/bin/env python3
"""Steadiness report: run one workload several times and show, per
metric, how far the runs agree.

    python3 perfbench/steady.py --workload compile-mix --runs 10 --seconds 30
    python3 perfbench/steady.py --workload serve-mix --seeds 7,7,7 --trace 1

Each run gets its own seed (1, 2, 3, ... unless --seeds lists them;
repeat a seed to rerun identical inputs).  For every metric it prints
the median, the first and third quartiles (statistics.quantiles(values,
n=4)), their distance as a share of the median (the spread
BENCHMARK.json's bounds are checked against, marked against a third of
the bound) and the max/min ratio.  Exit code 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(args, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        return None
    return json.loads(lines[-1])


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    args = ap.parse_args()
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = list(range(1, args.runs + 1))
    results = []
    for seed in seeds:
        r = run_once(args, seed)
        if r is None or not r["correct"]:
            print(f"seed {seed}: run failed")
            return 1
        results.append(r)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
    limit = bounds() if args.trace == 0 else {}
    print(f"\n{args.workload}: {len(results)} runs of {args.seconds} s")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        lo = min(vals)
        ratio = max(vals) / lo if lo else float("nan")
        mark = ""
        if limit.get(name) is not None:
            mark = "  ok" if spread <= limit[name] / 3 else f"  > bound/3 ({limit[name] / 3:.3f})"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {ratio:8.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
