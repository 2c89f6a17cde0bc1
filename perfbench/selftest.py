#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs the benchmark package's unit tests (`cargo test`): the tail rule
   (the highest percentile with at least ten samples beyond it, and the
   median of that rule over a run's consecutive segments), the metric
   name and unit charsets, units and directions, the result line, and that
   one seed gives a byte-identical operation sequence.
2. Checks, process against process, that one seed gives a byte-identical
   operation sequence (--print-ops) and another seed a different one.
3. Checks BENCHMARK.json against the metric table the binary prints with
   --list-metrics, and against the limits on its keys, names, units and bounds.

Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the runner's build and workload list)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def check_benchmark_json(table):
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    spec = json.loads(raw)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(spec)}")

    command = spec["command"]
    check(isinstance(command, list) and 1 <= len(command) <= 32, "command is a list of 1-32 strings")
    for part in command:
        check(isinstance(part, str) and len(part) <= 200, f"command part {part!r}")
        check(not part.startswith("/") and ".." not in part.split("/"), f"command part {part!r} stays in the repo")

    paths = spec["paths"]
    check(1 <= len(paths) <= 16, "1-16 paths")
    for path in paths:
        check(PATH.match(path) and not path.startswith("/") and ".." not in path.split("/"), f"path {path!r}")
        check((ROOT / path).is_dir(), f"path {path!r} is a directory")
    check(command[1].split("/")[0] in paths, "the command's script lives under paths")

    seconds = spec["run_seconds"]
    check(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds is a whole number in 1..60")

    names = set()

    def fresh(name):
        check(NAME.match(name), f"name {name!r} is [A-Za-z0-9_.-], at most 64, starting alphanumeric")
        check(name not in names, f"name {name!r} is used once")
        names.add(name)

    workloads = spec["workloads"]
    check(2 <= len(workloads) <= 8, "2-8 workloads")
    for workload in workloads:
        check(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        fresh(workload["name"])
        why = workload["why"]
        check(0 < len(why) <= 200 and "\n" not in why, f"why of {workload['name']} is one line of <= 200")
    check([w["name"] for w in workloads] == run.WORKLOADS, "workloads match the runner's list")

    for kind, bounded in (("end_to_end", True), ("per_layer", False)):
        declared = spec[kind]
        check(1 <= len(declared) <= (16 if bounded else 128), f"{kind} count")
        keys = {"name", "unit", "better", "bound"} if bounded else {"name", "unit", "better"}
        for metric in declared:
            check(set(metric) == keys, f"{kind} metric keys {sorted(metric)}")
            fresh(metric["name"])
            check(UNIT.match(metric["unit"]), f"unit {metric['unit']!r} of {metric['name']}")
            check(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
            if bounded:
                check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']} is in (0, 0.25]")
        check(declared == table[kind], f"{kind} in BENCHMARK.json matches the binary's metric table")

    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
    check(setup is not None and setup["unit"] == "s" and setup["better"] == "lower", "setup_s is declared")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def main():
    env = dict(os.environ, CARGO_TARGET_DIR=str(run.target_dir()))
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env,
    )
    check(tests.returncode == 0, "cargo test of the benchmark package")
    binary = run.build()
    check(binary is not None, "the benchmark builds")
    for workload in run.WORKLOADS:
        def ops(seed):
            return subprocess.run(
                [str(binary), "--workload", workload, "--seed", str(seed), "--print-ops", "4"],
                capture_output=True, check=True,
            ).stdout
        first = ops(11)
        check(first == ops(11), f"{workload}: seed 11 gives a byte-identical operation sequence")
        check(first != ops(12), f"{workload}: seeds 11 and 12 give different operation sequences")
    listed = subprocess.run([str(binary), "--list-metrics"], capture_output=True, text=True, check=True)
    check_benchmark_json(json.loads(listed.stdout))
    print("selftest: ok")


if __name__ == "__main__":
    main()
