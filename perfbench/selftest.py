#!/usr/bin/env python3
"""Check that two traced runs with one seed agree on every count metric.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Count metrics are the per-layer metrics whose unit in BENCHMARK.json is
"count" or "B". Exits 1 on any disagreement, failed run or failed check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = ("count", "B")


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload}: {result['failed']} failed operations\n{out.stderr}")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
    ok = True
    for w in args.workloads:
        try:
            first, second = (traced_run(w, args.seed, args.seconds) for _ in range(2))
        except RuntimeError as err:
            print(f"FAIL {err}")
            ok = False
            continue
        diff = [n for n in counts if first[n]["value"] != second[n]["value"]]
        for n in diff:
            print(f"FAIL {w}: {n} = {first[n]['value']} then {second[n]['value']}")
        nonzero = sum(1 for n in counts if first[n]["value"] != 0)
        print(f"{'ok  ' if not diff else 'FAIL'} {w}: {len(counts)} count metrics, {nonzero} nonzero")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
