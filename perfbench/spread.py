#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of an xqdb checkout:

    python3 perfbench/spread.py --workload serve-dblp --seeds 1-10

Runs the workload once per seed and prints each run's values.  Then it
prints, for each metric, the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread: the distance between the
first and third quartile as a share of the median.  It also shows each metric's bound from BENCHMARK.json
and flags a spread above a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out += list(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = list(bench["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if not (proc.returncode == 0 and result.get("correct")):
            status = 1
        metrics = result.get("metrics", {})
        runs.append(metrics)
        print("%s seed %d: exit %d correct %s  %s" % (
            args.workload, seed, proc.returncode, result.get("correct"),
            " ".join("%s=%.6g" % (name, m["value"]) for name, m in metrics.items())), flush=True)
    print("%-32s %12s %12s %12s %8s %6s" % (args.workload, "median", "q1", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        values = [m[name]["value"] for m in runs if name in m]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "  > bound/3" if spread > bound / 3 else ""
        print("%-32s %12.6g %12.6g %12.6g %8.4f %6s%s" % (name, med, q1, q3, spread, bound, flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
