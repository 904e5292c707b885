#!/usr/bin/env python3
"""Builds and runs the diffcd load benchmark.

Run from the repository root:

    python3 loadbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds loadbench/ (which compiles the diffc
library from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. The run's full output goes to
.bench_out/. The last line printed is the result object; its metric names
and units are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the loadbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "loadbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "loadbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "loadbench")


def check_names(result, spec, trace):
    """Every metric BENCHMARK.json names for this mode is emitted with its
    unit, and nothing else is."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result.get("metrics", {})
    problems = [f"missing metric {n}" for n in declared if n not in emitted]
    problems += [f"unnamed metric {n}" for n in emitted if n not in declared]
    problems += [f"{n} in {emitted[n]['unit']}, declared {u}"
                 for n, u in declared.items() if n in emitted and emitted[n]["unit"] != u]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, build_dir))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}.spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    with open(os.path.join(out_dir, stem + ".txt"), "w") as f:
        f.write(proc.stdout)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no result line (exit code {proc.returncode})")
    problems = check_names(result, spec, args.trace)
    if problems:
        fail("; ".join(problems))
    for line in lines:
        print(line)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
