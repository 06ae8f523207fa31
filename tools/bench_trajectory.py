#!/usr/bin/env python3
"""Perf trajectory: one record per workload for every change that touches a
hot path, appended to a checked-in JSON file.

Append the pairs of one change (two `perfbench/run.py collect` result sets,
one per side, runs paired by seed as `perfbench/run.py compare` pairs them):

    python3 tools/bench_trajectory.py append --parent a.jsonl \\
        --change b.jsonl --parent-commit SHA --change-title TITLE \\
        [--out BENCH_trajectory.json]

Both sets must be collected at BENCHMARK.json's run length, which the
record stores.

Validate a trajectory file (exit 1 and one line per problem if invalid):

    python3 tools/bench_trajectory.py --check BENCH_trajectory.json

A record holds the parent commit and the change it measures, the workload,
the pair count and run length, the failed/attempted operations on each side,
and for every end-to-end metric of BENCHMARK.json: its unit and direction,
each side's first quartile, median and third quartile, and the pairs each
side won (ties count for neither).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1
SIDES = ("parent", "change")


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_value(run, name):
    return run["result"]["metrics"][name]["value"]


def workload_record(workload, parent_runs, change_runs, metrics, seconds,
                    parent_commit, change_title):
    by_seed = {r["seed"]: r for r in parent_runs}
    pairs = [(by_seed[r["seed"]], r) for r in change_runs
             if r["seed"] in by_seed]
    if not pairs:
        raise SystemExit(f"{workload}: no seed appears in both result sets")
    record = {
        "schema": SCHEMA,
        "parent_commit": parent_commit,
        "change": change_title,
        "workload": workload,
        "pairs": len(pairs),
        "run_seconds": seconds,
        "operations": {
            side: {"failed": sum(r["result"]["failed"] for r in rs),
                   "attempted": sum(r["result"]["attempted"] for r in rs)}
            for side, rs in zip(SIDES, zip(*pairs))},
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        if not all(name in r["result"]["metrics"] for p in pairs for r in p):
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = {side: 0 for side in SIDES}
        for parent, change in pairs:
            d = sign * (metric_value(change, name) - metric_value(parent, name))
            if d > 0:
                wins["change"] += 1
            elif d < 0:
                wins["parent"] += 1
        entry = {"unit": m["unit"], "better": m["better"]}
        for i, side in enumerate(SIDES):
            q1, med, q3 = quartiles([metric_value(p[i], name) for p in pairs])
            entry[side] = {"q1": q1, "median": med, "q3": q3,
                           "pairs_won": wins[side]}
        record["metrics"][name] = entry
    return record


def check(path):
    """Returns the schema problems of a trajectory file (empty if valid)."""
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: cannot read JSON: {e}"]
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        return [f"{path}: top level must be an object with a 'records' list"]
    for i, rec in enumerate(doc["records"]):
        where = f"record {i}"
        if not isinstance(rec, dict):
            problems.append(f"{where}: not an object")
            continue
        if rec.get("schema") != SCHEMA:
            problems.append(f"{where}: schema must be {SCHEMA}")
        for key in ("parent_commit", "change", "workload"):
            if not isinstance(rec.get(key), str) or not rec.get(key):
                problems.append(f"{where}: '{key}' must be a non-empty string")
        pairs = rec.get("pairs")
        if not isinstance(pairs, int) or pairs < 1:
            problems.append(f"{where}: 'pairs' must be a positive integer")
            pairs = None
        if not isinstance(rec.get("run_seconds"), (int, float)):
            problems.append(f"{where}: 'run_seconds' must be a number")
        ops = rec.get("operations")
        if not isinstance(ops, dict) or any(
                not isinstance(ops.get(s), dict) or
                not all(isinstance(ops[s].get(k), int)
                        for k in ("failed", "attempted")) for s in SIDES):
            problems.append(f"{where}: 'operations' needs integer failed and "
                            "attempted counts for parent and change")
        metrics = rec.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}: 'metrics' must be a non-empty object")
            continue
        for name, m in metrics.items():
            at = f"{where} metric {name}"
            if not isinstance(m, dict):
                problems.append(f"{at}: not an object")
                continue
            if not isinstance(m.get("unit"), str):
                problems.append(f"{at}: 'unit' must be a string")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{at}: 'better' must be lower or higher")
            won = 0
            for side in SIDES:
                s = m.get(side)
                if not isinstance(s, dict) or not all(
                        isinstance(s.get(k), (int, float))
                        for k in ("q1", "median", "q3")):
                    problems.append(f"{at}: '{side}' needs numeric q1, "
                                    "median and q3")
                    continue
                if not s["q1"] <= s["median"] <= s["q3"]:
                    problems.append(f"{at}: {side} quartiles out of order")
                if not isinstance(s.get("pairs_won"), int) or s["pairs_won"] < 0:
                    problems.append(f"{at}: {side} 'pairs_won' must be a "
                                    "non-negative integer")
                else:
                    won += s["pairs_won"]
            if pairs is not None and won > pairs:
                problems.append(f"{at}: pairs won exceed the pair count")
    return problems


def cmd_append(argv):
    p = argparse.ArgumentParser(
        description="append one change's pairs to a trajectory file")
    p.add_argument("--parent", required=True, help="parent collect file")
    p.add_argument("--change", required=True, help="change collect file")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--change-title", required=True)
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_trajectory.json"))
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(a.parent), load_runs(a.change)
    doc = {"records": []}
    if os.path.exists(a.out):
        with open(a.out) as f:
            doc = json.load(f)
    for w in [w["name"] for w in spec["workloads"]]:
        if w in parent and w in change:
            doc["records"].append(workload_record(
                w, parent[w], change[w], spec["end_to_end"],
                spec["run_seconds"], a.parent_commit, a.change_title))
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    problems = check(a.out)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if argv and argv[0] == "append":
        return cmd_append(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", required=True, metavar="FILE",
                   help="validate a trajectory file's schema")
    a = p.parse_args(argv)
    problems = check(a.check)
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print(f"{a.check}: valid")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
