#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale.

Run from the root of an xqdb checkout:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark once plain
and once traced on tiny documents, and checks that the last line is the
JSON result with exactly the metrics BENCHMARK.json names (end-to-end
when plain, per-layer when traced), each with its unit and a finite
number, and that no output differed from its oracle.  Premises about
document size relative to the buffer pool cannot hold at this scale, so
a run that fails only on such premises passes.  It takes about a
minute.
"""

import json
import math
import subprocess
import sys

TINY_SCALE = {"fig7": 80, "serve-dblp": 60, "serve-treebank": 600}


def check_run(bench, workload, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", str(TINY_SCALE[workload])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    where = "%s --trace %d" % (workload, trace)
    errors = []
    if not lines:
        return ["%s: no output" % where]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["%s: last line is not JSON: %r" % (where, lines[-1][:200])]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    problems = [l.strip() for l in lines if l.strip().startswith("PROBLEM:")]
    others = [p for p in problems if not p.startswith("PROBLEM: premise:")]
    if others or result.get("failed", 1) != 0:
        errors.append("%s: failed %s, problems %s" % (where, result.get("failed"), others))
    if proc.returncode != 0 and not problems:
        errors.append("%s: exit %d without a stated problem" % (where, proc.returncode))
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        errors.append("%s: missing %s, unexpected %s" % (where, missing, extra))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, not %r" % (where, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s = %r" % (where, m["name"], value))
        elif not trace and value == 0:
            errors.append("%s: end-to-end %s is 0" % (where, m["name"]))
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            errs = check_run(bench, w["name"], trace)
            print("%-16s trace %d: %s" % (w["name"], trace, "ok" if not errs else "FAILED"))
            errors += errs
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
