#!/usr/bin/env python3
"""Traced-run report for the wmcast benchmark.

For each workload, reads the untraced (--trace 0) and traced (--trace 1)
result documents that perfbench/run.py keeps under .bench_build/results/ for
one seed, running them first with --run, and prints

  * each layer's self time in the traced run (span time minus child spans),
    and its share of all span time;
  * the tracing overhead: every end-to-end metric of the traced run minus the
    same metric of the untraced run, absolute and relative.

    python3 perfbench/report.py --seed 1 --run
    python3 perfbench/report.py --seed 1 --workload serve_mobility
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def result_path(workload, seed, trace):
    return os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--run", action="store_true", help="run both modes first")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        if args.run:
            for trace in (0, 1):
                cmd = list(spec["command"]) + [
                    "--workload", w, "--seed", str(args.seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        try:
            with open(result_path(w, args.seed, 0)) as f:
                plain = json.load(f)
            with open(result_path(w, args.seed, 1)) as f:
                traced = json.load(f)
        except OSError as e:
            print(f"{w}: missing result ({e}); run with --run", file=sys.stderr)
            continue

        print(f"== {w} (seed {args.seed}, {traced['info'].get('spans', 0)} spans)")
        self_s = {k[: -len(".self_s")]: v["value"] for k, v in traced["layers"].items()
                  if k.endswith(".self_s")}
        total = sum(self_s.values()) or 1.0
        print(f"  {'layer':8} {'self_s':>10} {'share':>7}")
        for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:8} {s:10.3f} {s / total * 100:6.1f}%")
        print(f"  {'end-to-end metric':22} {'untraced':>12} {'traced':>12} "
              f"{'overhead':>12} {'rel':>8}")
        for m in spec["end_to_end"]:
            a = plain["e2e"][m["name"]]["value"]
            b = traced["e2e"][m["name"]]["value"]
            rel = (b - a) / a * 100 if a else 0.0
            print(f"  {m['name']:22} {a:12.5g} {b:12.5g} {b - a:12.4g} {rel:7.1f}%")


if __name__ == "__main__":
    main()
