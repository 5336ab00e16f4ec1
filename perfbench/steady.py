#!/usr/bin/env python3
"""Steadiness check for the QDT benchmark.

Runs one workload (or all) as two sets of repeated runs of the same
build, each run with its own seed, prints each end-to-end metric's
median, quartiles and spread per set, and says whether the two sets
agree within the bounds in BENCHMARK.json:

  * every spread (q3 - q1) / median, setup_s included, is within its
    bound;
  * the two sets' medians differ by at most the bound, in either
    direction: both sets run the same code, so a set that reads much
    better is as far off as one that reads much worse;
  * the share of failed operations is exactly the same in both sets.

Before the runs it executes the benchmark's self-test (nearest-rank
percentiles on known samples; each output check rejects a corrupted
result).  Run from the repository root:

  python3 perfbench/steady.py --workload design-flow --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

RUN = ["bash", "perfbench/run.sh"]


def run_once(workload, seed, seconds):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    if subprocess.run(RUN + ["--selftest"]).returncode != 0:
        print("self-test failed")
        return 1

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                r = run_once(workload, seed, args.seconds)
                print(f"{workload} set {s + 1} seed {seed}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']}", flush=True)
                ok &= r["correct"]
                runs.append(r)
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs per set, {args.seconds} s each")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        medians = []
        for name, m in metrics.items():
            per_set = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                per_set.append(med)
                flag = ""
                if spread > m["bound"]:
                    flag = "  SPREAD > BOUND"
                    ok = False
                print(f"{name:<16} {s + 1:>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.4f} {m['bound']:>6}{flag}")
            medians.append((name, m, per_set))
        for name, m, (a, b) in medians:
            change = (b - a) / a
            agree = abs(change) <= m["bound"]
            ok &= agree
            print(f"  {name:<16} second vs first: {100 * change:+.2f}% "
                  f"(bound {100 * m['bound']:.0f}%) {'ok' if agree else 'OUTSIDE BOUND'}")
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        same = shares[0] == shares[1]
        ok &= same
        print(f"  failed share: {shares[0]} vs {shares[1]} "
              f"{'identical' if same else 'DIFFERENT'}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
