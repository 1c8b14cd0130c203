#!/usr/bin/env python3
"""Runs one workload of the wmcast benchmark and prints its result line.

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The first run builds the driver
(perfbench/CMakeLists.txt: the library from src/ plus perfbench/cpp/) into
.bench_build/perfbench; later runs only re-check the build. The driver runs
the workload, checks its outputs and reports every metric; this script checks
that the metric set matches BENCHMARK.json, keeps the full document under
.bench_build/results/, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. Exit status 0 only when every check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "wmcast_perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/CMakeLists.txt here; run from the root of a "
                 "wmcast source checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3"], stdout=sys.stderr, check=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(RESULTS, stem + ".spans.json"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"run.py: driver exited with {proc.returncode}")
    doc = json.loads(lines[-1])
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(doc, f, indent=1)

    for c in doc["checks"]:
        if not c["ok"]:
            log(f"run.py: check {c['name']} failed {c.get('detail', '')}")
    # Metric-shape problems count as failed checks on top of the driver's own.
    problems = []
    reported = doc["layers" if args.trace else "e2e"]
    declared = declared_metrics(args.trace)
    if set(reported) != set(declared):
        problems.append("metric set differs from BENCHMARK.json: missing "
                        f"{sorted(set(declared) - set(reported))}, extra "
                        f"{sorted(set(reported) - set(declared))}")
    metrics = {}
    for name, unit in declared.items():
        m = reported.get(name)
        if m is None:
            continue
        if m["unit"] != unit or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"metric {name}: bad value {m}")
        metrics[name] = {"value": m["value"], "unit": unit}
    for p in problems:
        log("run.py:", p)
    correct = doc["correct"] and not problems
    failed = doc["failed"] + len(problems)
    log(f"run.py: {args.workload} seed {args.seed}: {len(doc['checks'])} checks, "
        f"failed_ratio {doc['failed_ratio']:.6g}, samples {doc['info'].get('samples')}")
    print(json.dumps({"correct": correct, "attempted": max(1, doc["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
