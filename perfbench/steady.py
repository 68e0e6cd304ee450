#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--trace 0|1] WORKLOAD...

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) for
each workload, one run at a time, and prints for every metric its median
and its spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  With no
--seconds, run_seconds from BENCHMARK.json is used.  Every run must
report "correct": true.
"""

import argparse
import json
import statistics
import subprocess
import sys


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, timeout=200).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    ok = True
    for w in args.workloads:
        values = {}
        for i in range(args.runs):
            res = one_run(w, args.first_seed + i, seconds, args.trace)
            if not res["correct"] or res["failed"]:
                ok = False
                print("%s seed %d: correct=%s failed=%d" %
                      (w, args.first_seed + i, res["correct"], res["failed"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, %d s)" % (w, args.runs, seconds))
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            print("  %-34s median %12.6g  spread %6.3f  [%s]" %
                  (name, med, spread, " ".join("%.4g" % v for v in vs)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
