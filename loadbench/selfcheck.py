#!/usr/bin/env python3
"""Self-check of the diffcd load benchmark.

Run from the repository root:

    python3 loadbench/selfcheck.py [--seconds 1]

Checks, and exits 1 if any fails:
  - BENCHMARK.json names each workload and each metric once (nodupes);
  - every per-layer metric belongs to a known layer, and every layer named
    after a server-side span still has that span string in src/;
  - each workload, run briefly untraced and traced, emits exactly the
    metrics BENCHMARK.json names for that mode (nomissing, nothing
    unnamed), each with its declared unit, with no verdict or certificate
    mismatch and no failed operation.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "loadbench"))
from run import check_names  # noqa: E402

# Layers named after span strings in src/: SpanGuard names on the server's
# request path and the decision procedures' names.
SRC_SPAN_LAYERS = [
    "nonce-lookup", "admission", "execute", "encode", "prepare", "handle-register",
    "witness-cache-probe", "trivial", "fd-subclass", "interval-cover", "sat", "exhaustive",
]
# Layers the benchmark defines around calls that have no server-side span.
BENCH_LAYERS = [
    "ping", "client-encode", "decode", "client-decode", "wire", "client", "fail_ratio",
    "pool-handoff", "plan", "rewrite", "translate", "unattributed", "trace",
]


def src_span_strings():
    found = set()
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if not name.endswith(".cc"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                text = f.read()
            found.update(re.findall(r'SpanGuard\s+\w+\([^,]+,\s*"([^"]+)"\)', text))
            found.update(re.findall(r'name\(\) const override \{ return "([^"]+)"; \}', text))
    return found


def check_spec(spec):
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for kind, names in (("workload", workloads), ("metric", metrics)):
        problems += [f"{kind} {n} named twice" for n in sorted(set(names))
                     if names.count(n) > 1]
    known = set(SRC_SPAN_LAYERS) | set(BENCH_LAYERS)
    problems += [f"per-layer metric {m['name']} has no known layer"
                 for m in spec["per_layer"] if m["name"].split(".", 1)[0] not in known]
    spans = src_span_strings()
    problems += [f"layer {layer} is not a span string in src/"
                 for layer in SRC_SPAN_LAYERS if layer not in spans]
    return problems


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "loadbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    where = f"{workload} --trace {trace}"
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: no result (exit {proc.returncode}): {proc.stderr[-500:]}"]
    problems = [f"{where}: {p}" for p in check_names(result, spec, trace)]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}")
    return problems


def main():
    parser = argparse.ArgumentParser(description="Self-check of the diffcd load benchmark.")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace, args.seconds)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
