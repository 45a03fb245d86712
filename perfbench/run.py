#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the solver and the `perfbench` program
with optimisation on into .bench_build/perfbench (first run only, or after
a source change), keeps generated inputs in .bench_build/perfbench-inputs,
then runs the workload in fresh processes. The last line of standard output
is the result JSON; everything above it is for people. The exit code is not
0, and no result is printed, when the build, a run or a check machinery
fails.

setup_s is the median of SETUP_PROBES + 1 first solves, each in its own
fresh process: the timed run's own first solve and SETUP_PROBES probe
processes that stop after theirs. Probe solves are checked and counted in
attempted/failed like the others.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-inputs")
EXE = os.path.join(BUILD_DIR, "perfbench")
SETUP_PROBES = 2
# Budget for all perfbench processes of one run, after the build.
RUN_BUDGET_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"solver sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def clean_env():
    """The solver reads DNC_* knobs; a benchmark run must not inherit any."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DNC_")}


def run_exe(args, deadline):
    """Runs perfbench, returns (stdout lines, parsed last line)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}", proc.returncode or 1)
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench printed no result: {lines[-1]!r}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    build()
    if a.self_test:
        sys.exit(subprocess.run([EXE, "--self-test", "--cache-dir", CACHE_DIR], cwd=ROOT,
                                env=clean_env()).returncode)
    if not a.workload:
        fail("--workload is required")

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--cache-dir", CACHE_DIR]
    probes = []
    if a.trace == 0:
        probes = [run_exe(common + ["--setup-probe"], deadline)[1] for _ in range(SETUP_PROBES)]
    lines, result = run_exe(common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                            deadline)
    print("\n".join(lines[:-1]))
    if probes:
        bad = sum(p["failed"] for p in probes)
        result["attempted"] += sum(p["attempted"] for p in probes)
        result["failed"] += bad
        result["correct"] = result["correct"] and bad == 0
        setups = [p["setup_s"] for p in probes] + [result["metrics"]["setup_s"]["value"]]
        print(f"# setup_s samples (fresh processes): {' '.join(f'{s:.6f}' for s in setups)}")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
