#!/usr/bin/env python3
"""Measure the run-to-run spread of every perfbench metric.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed0 1]
                                    [--seconds 10] [--trace 0]

Run from the repository root. Runs each workload --runs times through
run.py, every run in fresh processes with its own seed (seed0, seed0+1,
...). Round r visits the workloads in an order rotated by r, so no
workload always runs first or after the same neighbour. Prints, per
workload and metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median. For --trace 0 each spread is
compared with the metric's bound from BENCHMARK.json: "ok" below a third
of it, "WIDE" above the bound, "near" between. setup_s is exempt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    units = {}
    failures = 0
    for r in range(a.runs):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(a.seed0 + r), "--seconds", str(a.seconds), "--trace", str(a.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"run {r} {w}: exit {proc.returncode}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"run {r} {w}: correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr)
                failures += 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            brief = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if k in ("setup_s", "solve_s_p50", "solve_s_tail"))
            print(f"run {r} {w} seed {a.seed0 + r}: {brief}", file=sys.stderr, flush=True)

    print(f"{'workload':<12} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            verdict, bound = "", bounds.get(name)
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print(f"{w:<12} {name:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict} [{units[name]}] n={len(vals)}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
