#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--workload W ...] [--seeds N] [--first S]
                                [--trace 0|1] [--seconds S] [--values]

For every workload it runs the command in BENCHMARK.json once per seed
(S, S+1, ...), one run at a time, and prints per metric the median, the
quartile distance (Q3 - Q1, as statistics.quantiles(values, n=4) gives
the quartiles) as a share of the median, and that share as a fraction of
the metric's bound. Exit status is 1 if any run failed its correctness
check or exited non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        walls = []
        for seed in range(args.first, args.first + args.seeds):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                print(p.stderr[-2000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {len(walls)} runs, wall median {statistics.median(walls):.1f}s"
              f" max {max(walls):.1f}s")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                share = (q[2] - q[0]) / abs(med)
            else:
                share = float("nan")
            bound = bounds.get(name)
            of_bound = f" = {share / bound:.2f} of bound {bound}" if bound else ""
            print(f"  {name:<34} median {med:<14.6g} iqr/median {share:.4f}{of_bound}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
