#!/usr/bin/env python3
"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cavity-sync --seeds 1-10 [--trace 0]
        [--save runs.json] [--against earlier.json]

For every metric it prints the median of the per-run values and their
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
BENCHMARK.json gives it.  --against compares the medians with an earlier
saved set.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.rstrip("\n").split("\n")[-1])
        if not res["correct"]:
            print("seed %d: not correct (%d failed)" % (seed, res["failed"]))
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        print("seed %d done" % seed, file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    before = None
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    print("%-28s %14s %8s %6s %s" % ("metric", "median", "spread", "bound",
                                     "vs earlier" if before else ""))
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        sp = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(name)
        extra = ""
        if before:
            m0 = statistics.median(r[name] for r in before)
            extra = "%+.2f%%" % (100 * (med - m0) / m0) if m0 else ""
        print("%-28s %14.6g %7.2f%% %6s %s" % (
            name, med, 100 * sp, "-" if b is None else "%.2f" % b, extra))


if __name__ == "__main__":
    main()
