#!/usr/bin/env python3
"""Parent-vs-change comparison for the wmcast benchmark.

Runs the benchmark in two source checkouts (the parent commit and the change)
as PAIRS alternating pairs: pair i runs both sides on seed SEED_BASE+i, and
which side goes first alternates from pair to pair. The parent's
BENCHMARK.json is saved as <out>/BENCHMARK.json, every result line is
appended to <out>/parent.jsonl and <out>/change.jsonl, then one row is
printed per (workload, metric):

    python3 perfbench/compare.py run --parent ../wmcast-parent --change . \
        --workload serve_mobility --out cmp
    python3 perfbench/compare.py report --out cmp

The verdict follows the benchmark's rules for claiming a gain:
  invalid     a change run exited non-zero or reported incorrect output, or
              the change's runs failed more operations than the parent's
  better      the change wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than the
              metric's bound from BENCHMARK.json
  unresolved  the parent's own spread (quartile distance over median) is wider
              than the bound, and not every change run beats every parent run
  same        none of the above
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 10
SEED_BASE = 1000


def load_spec(directory):
    with open(os.path.join(directory, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(checkout, spec, workload, seed):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "failed": 0,
                                                  "metrics": {}}
    result.update({"workload": workload, "seed": seed, "exit": proc.returncode})
    return result


def cmd_run(args):
    os.makedirs(args.out, exist_ok=True)
    shutil.copyfile(os.path.join(args.parent, "BENCHMARK.json"),
                    os.path.join(args.out, "BENCHMARK.json"))
    spec = load_spec(args.out)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for i in range(PAIRS):
        seed = SEED_BASE + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            r = run_one(sides[side], spec, args.workload, seed)
            with open(os.path.join(args.out, side + ".jsonl"), "a") as f:
                f.write(json.dumps(r) + "\n")
            print(f"pair {i} {side} seed {seed}: exit {r['exit']}", file=sys.stderr)
    cmd_report(args)


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bad_runs(runs):
    return sum(1 for r in runs if not r.get("correct") or r.get("exit"))


def failed_ops(runs):
    return sum(r.get("failed", 0) for r in runs)


def verdict(parent, change, better, bound, valid):
    """parent/change: lists of (seed, value). better: 'lower' or 'higher'.
    valid: False when the change side's runs disqualify any gain."""
    sign = -1.0 if better == "lower" else 1.0
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    dominates = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if not valid:
        v = "invalid"
    elif share >= 0.9 and abs(cm - pm) > (p3 - p1):
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not dominates:
        v = "unresolved"
    else:
        v = "same"
    return share, len(pairs), v


def cmd_report(args):
    spec = load_spec(args.out)
    parent = read_runs(os.path.join(args.out, "parent.jsonl"))
    change = read_runs(os.path.join(args.out, "change.jsonl"))
    print(f"{'workload':16} {'metric':22} {'parent med [q1, q3]':34} "
          f"{'change med [q1, q3]':34} {'won':>9} verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        if not p_runs or not c_runs:
            continue
        p_bad, c_bad = bad_runs(p_runs), bad_runs(c_runs)
        p_failed, c_failed = failed_ops(p_runs), failed_ops(c_runs)
        if p_bad or c_bad or p_failed or c_failed:
            print(f"{w:16} bad runs: parent {p_bad}, change {c_bad}; "
                  f"failed operations: parent {p_failed}, change {c_failed}")
        valid = c_bad == 0 and c_failed <= p_failed
        for m in spec["end_to_end"]:
            p = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in p_runs
                 if m["name"] in r["metrics"]]
            c = [(r["seed"], r["metrics"][m["name"]]["value"]) for r in c_runs
                 if m["name"] in r["metrics"]]
            if not p or not c:
                continue
            share, n, v = verdict(p, c, m["better"], m["bound"], valid)
            pq = quartiles([x for _, x in p])
            cq = quartiles([x for _, x in c])
            print(f"{w:16} {m['name']:22} {pq[1]:11.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:11.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{share * 100:5.0f}% /{n:<2} {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help=f"run {PAIRS} alternating pairs, then report")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--workload", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="report on the runs saved under --out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
