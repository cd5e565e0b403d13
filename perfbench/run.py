#!/usr/bin/env python3
"""Benchmark entry point: build the runner, run one workload, print the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload span-audit --seed 1 --seconds 12 --trace 0

Builds the localspan library and perfbench/workloads.cpp with CMake into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``), runs the
runner for the workload in its own process, and prints two lines on standard
output: a ``meta`` record (host, build, seed, commit, op counts and the
deterministic quality/count detail), then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics (0 for a layer the workload does not
exercise). Every workload is bounded by counts derived from ``--seconds``,
never by a clock, so everything but the timings repeats exactly at one seed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The workloads themselves (size, algorithm, threads, set-ups, query batches,
# quality sample) are defined in workloads.cpp. Here only --seconds is turned
# into a fixed op count: op_s is the nominal seconds per op on a 4-core x86
# host, min_ops a floor on the count.
WORKLOADS = {
    # Six ops: two per timed instance, so every traced op has an untraced twin.
    "span-audit": {"op_s": 2.5, "min_ops": 6},
    "build-scale": {"op_s": 1.1, "min_ops": 10},
    # 100 windows leave ten samples beyond op_ms_p90.
    "churn-serve": {"op_s": 0.29, "min_ops": 100},
    "dist-build": {"op_s": 0.43, "min_ops": 10},
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the runner; tool output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no library sources: {ROOT / 'src'} is missing")
    out = build_dir()
    jobs = str(max(1, min(4, host_cpus())))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                           check=True)
        except (OSError, subprocess.SubprocessError) as exc:
            fail(f"build step {' '.join(cmd)} failed: {exc}")
    runner = out / "perfbench_runner"
    if not runner.is_file():
        fail(f"build produced no runner at {runner}")
    return runner


def op_count(spec, seconds):
    return max(spec["min_ops"], int(round(seconds / spec["op_s"])))


def run_workload(runner, workload, seed, ops, trace):
    """Run the workload binary once and return its parsed result object.

    The runner exits with code 3 and a `skipped` record when the workload
    needs more library threads than the host has CPUs; that record is passed
    on and the benchmark exits with code 3."""
    cmd = [str(runner), "--workload", workload, "--seed", str(seed), "--ops", str(ops),
           "--trace", str(int(trace))]
    env = {k: v for k, v in os.environ.items() if k != "LOCALSPAN_THREADS"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUNNER_TIMEOUT_S,
                              env=env, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s on {workload}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 3 and lines:
        print(lines[-1])
        fail(f"skipped {workload}: it needs more library threads than the host has CPUs", 3)
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with code {proc.returncode} on {workload}")
    return json.loads(lines[-1])


def select_metrics(declared, measured, required):
    """Pick the declared metrics, in declared order, from the runner output.

    A required metric must be present; an optional (per-layer) one the
    workload does not exercise reads 0. Units must agree with the
    declaration either way."""
    out = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None:
            if required:
                fail(f"runner did not report end-to-end metric {name}")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name}: runner unit {got['unit']} != declared {unit}")
        value = float(got["value"])
        if not math.isfinite(value):
            fail(f"metric {name} is not finite")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    started = time.monotonic()
    runner = build()
    build_s = time.monotonic() - started
    ops = op_count(WORKLOADS[args.workload], args.seconds)
    res = run_workload(runner, args.workload, args.seed, ops, args.trace)

    if args.trace:
        metrics = select_metrics(declared["per_layer"], res["metrics"], required=False)
    else:
        metrics = select_metrics(declared["end_to_end"], res["metrics"], required=True)
    attempted, failed = int(res["attempted"]), int(res["failed"])
    meta = {key: res.get(key) for key in ("workload", "seed", "trace", "nproc", "threads",
                                          "build_type", "setups", "query_batches", "quality",
                                          "samples", "errors", "detail")}
    meta.update(git_commit=git_commit(), ops=ops, build_s=round(build_s, 3))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted >= 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
