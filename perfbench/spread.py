#!/usr/bin/env python3
"""Run one workload of the benchmark several times and report each
end-to-end metric's median and spread (interquartile range as a share of
the median, by statistics.quantiles(values, n=4)), next to its bound.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--out FILE]

--seconds defaults to BENCHMARK.json's run_seconds. Each run gets its own
seed. Raw result lines are appended to --out when given. Exits 1 when a
run fails or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            bench["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            ok = False
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)),
            flush=True)
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > bounds[name]:
            flag = "  OVER BOUND"
            ok = False
        elif spread > bounds[name] / 3:
            flag = "  over a third of bound"
        print("%-18s median %-12.6g spread %.4f bound %.2f%s"
              % (name, med, spread, bounds[name], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
