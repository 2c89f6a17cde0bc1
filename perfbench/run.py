#!/usr/bin/env python3
"""Builds and runs the jury-selection service benchmark.

One workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

All workloads, each in its own process, with a table of every end-to-end
metric per workload (and, with --trace 1, of every per-layer metric too):

    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). Traced runs
write their spans to <target dir>/perfbench-trace/. The last line of standard
output is the run's JSON result; any failure exits non-zero without one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["select-anneal", "sweep-warm", "batch-shared", "online-drift"]
# Every run must end within 180 seconds; stop one a little before that.
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    binary = target_dir() / "release" / "jury-perfbench"
    if built.returncode != 0 or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its JSON result or None."""
    command = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        spans = target_dir() / "perfbench-trace" / f"{workload}-seed{seed}.jsonl"
        command += ["--trace-out", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: {workload} printed a malformed result", file=sys.stderr)
        return None
    return result, lines[-1]


def run_all(binary, seed, seconds, trace_too):
    """Every workload in its own process, then a table of every metric."""
    results = {}
    for trace in [0, 1] if trace_too else [0]:
        for workload in WORKLOADS:
            outcome = run_one(binary, workload, seed, seconds, trace)
            if outcome is None:
                return 1
            results[(workload, trace)] = outcome[0]
    for trace in [0, 1] if trace_too else [0]:
        print()
        print("end-to-end metrics (untraced runs)" if trace == 0 else "per-layer metrics (traced runs)")
        header = f"{'metric':<38} {'unit':<9}" + "".join(f"{w:>16}" for w in WORKLOADS)
        print(header)
        rows = {}
        for workload in WORKLOADS:
            result = results[(workload, trace)]
            for name, metric in result["metrics"].items():
                rows.setdefault((name, metric["unit"]), {})[workload] = metric["value"]
            if trace == 0:
                error_rate = result["failed"] / result["attempted"]
                rows.setdefault(("error_rate", "fraction"), {})[workload] = error_rate
        for (name, unit), values in rows.items():
            cells = "".join(f"{values.get(w, float('nan')):>16.6g}" for w in WORKLOADS)
            print(f"{name:<38} {unit:<9}{cells}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {f"{w}{'/traced' if t else ''}": r for (w, t), r in results.items()},
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()

    if args.workload != "all" and None in (args.seed, args.seconds, args.trace):
        parser.error("--seed, --seconds and --trace are required for a single workload")
    binary = build()
    if binary is None:
        return 1
    if args.workload == "all":
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        trace_too = args.trace == 1
        return run_all(binary, 1 if args.seed is None else args.seed, seconds, trace_too)
    outcome = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        return 1
    print(outcome[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
