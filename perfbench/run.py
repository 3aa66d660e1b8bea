#!/usr/bin/env python3
"""Build the perfbench executable from source and run one workload.

Run from the root of an autocfd checkout:

    python3 perfbench/run.py --workload aerofoil-2rank --seed 1 --seconds 30 --trace 0

The build output goes to stderr, so the last line of standard output is
the benchmark's JSON result.  Before passing that result on, the metric
names in it are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "src", "bench.exe")
TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run me from the root of an autocfd checkout "
                    "(no dune-project or lib/ here)")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/src/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed", build.returncode or 1)

    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark did not finish within %d s" % TIMEOUT_S, 1)
    if run.returncode != 0:
        return fail("benchmark exited with %d" % run.returncode, 1)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    want = sorted(m["name"] for m in spec[key])
    got = sorted(result["metrics"])
    if want != got:
        return fail("metrics %s do not match BENCHMARK.json %s" % (got, want), 1)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
