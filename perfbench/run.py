#!/usr/bin/env python3
"""Entry point of the mec end-to-end and per-layer benchmark.

Run one measurement (from the root of a checkout):

    python3 perfbench/run.py --workload setup_1m --seed 1 --seconds 30 --trace 0

builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library from src/) under .bench_build/, runs the workload for the given wall
budget and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.  --smoke runs the
workload at 1/100 of its population.

Two more modes work on result sets (JSON lines, one run per line):

    python3 perfbench/run.py collect --out a.jsonl --runs 10 [--seconds S]
    python3 perfbench/run.py compare a.jsonl b.jsonl

collect runs every workload (or --workload W, repeatable) with seeds
--first-seed, --first-seed + 1, ...; compare prints per workload and metric
the medians, quartiles, pair-win fraction and a resolved/unresolved verdict
of set B against set A.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "mec_perfbench")
# A run, build of an up-to-date tree included, must end within 180 s.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 840.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_process(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group (forked
    ranks included) and waits for it if the deadline passes."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out or ""


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, _ = run_process(configure, BUILD_DEADLINE_S, capture=False)
        if rc != 0:
            raise RuntimeError("cmake configure failed")
    rc, _ = run_process(["cmake", "--build", BUILD_DIR, "-j", jobs,
                         "--target", "mec_perfbench"],
                        BUILD_DEADLINE_S, capture=False)
    if rc != 0:
        raise RuntimeError("build failed")


def run_once(workload, seed, seconds, trace, smoke):
    """One benchmark run; returns the program's stdout lines, the last of
    which is the JSON result."""
    build()
    # The first run of a checkout may spend minutes building; the deadline
    # covers the measurement that follows.
    start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed),
              "--smoke", "1" if smoke else "0"]
    expect = []
    if workload == "dtu_process":
        # Determinism contract #8, checked once per run outside the timed
        # operations: the process transport must reproduce the in-process
        # result of the same seed.
        rc, out = run_process([PROGRAM, "--reference", "1"] + common,
                              RUN_DEADLINE_S - (time.monotonic() - start), True)
        lines = out.strip().splitlines()
        if rc != 0 or not lines or not lines[-1].startswith("digest "):
            raise RuntimeError("in-process reference run failed")
        expect = ["--expect-digest", lines[-1].split()[1]]
    cmd = [PROGRAM, "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(BUILD_DIR, "traces")] + common + expect
    rc, out = run_process(cmd, RUN_DEADLINE_S - (time.monotonic() - start), True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError(f"mec_perfbench exited with {rc}")
    json.loads(lines[-1])
    return lines


def cmd_run(argv):
    p = argparse.ArgumentParser(description="run one benchmark measurement")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run at 1/100 of the workload's population")
    a = p.parse_args(argv)
    for line in run_once(a.workload, a.seed, a.seconds, a.trace, a.smoke):
        print(line)
    return 0


def cmd_collect(argv):
    p = argparse.ArgumentParser(description="append runs to a result set")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    spec = load_spec()
    seconds = a.seconds or spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    with open(a.out, "a") as out:
        for i in range(a.runs):
            seed = a.first_seed + i
            for w in workloads:
                lines = run_once(w, seed, seconds, a.trace, smoke=False)
                record = {"workload": w, "seed": seed, "trace": a.trace,
                          "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{w} seed {seed}: {lines[-1]}", flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(q):
    """median [q1, q3] and the quartile spread as a share of the median."""
    spread = (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {spread:.3f}"


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def cmd_compare(argv):
    p = argparse.ArgumentParser(
        description="compare result set B against baseline set A")
    p.add_argument("a")
    p.add_argument("b")
    a = p.parse_args(argv)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    set_a, set_b = load_set(a.a), load_set(a.b)
    print(f"{'workload':<12} {'metric':<26} {'A median [q1, q3] spread':<44} "
          f"{'B median [q1, q3] spread':<44} {'B wins':>6} {'A wins':>6} "
          f"{'verdict':<11} bound")
    all_within = True
    for workload in sorted(set(set_a) & set(set_b)):
        ra, rb = set_a[workload], set_b[workload]
        for label, rs in (("A", ra), ("B", rb)):
            failed = sum(r["result"]["failed"] for r in rs)
            attempted = sum(r["result"]["attempted"] for r in rs)
            print(f"{workload:<12} {label}: {len(rs)} runs, "
                  f"{failed}/{attempted} operations failed")
        names = [n for n in rb[0]["result"]["metrics"] if n in metrics]
        for name in names:
            m = metrics[name]
            va = [r["result"]["metrics"][name]["value"] for r in ra
                  if name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"] for r in rb
                  if name in r["result"]["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            # Runs pair up by seed where both sets have it, else by order.
            by_seed = {r["seed"]: r for r in ra}
            pairs = [(by_seed[r["seed"]], r) for r in rb if r["seed"] in by_seed]
            if not pairs:
                pairs = list(zip(ra, rb))
            sign = 1.0 if m["better"] == "higher" else -1.0
            b_wins = a_wins = 0
            for x, y in pairs:
                d = sign * (y["result"]["metrics"][name]["value"] -
                            x["result"]["metrics"][name]["value"])
                b_wins += d > 0
                a_wins += d < 0
            n = max(len(pairs), 1)
            # choosing-metrics section 8: at least ten pairs, one side wins
            # at least nine tenths of them, and the medians differ by more
            # than A's own quartile spread.
            resolved = (len(pairs) >= 10 and max(b_wins, a_wins) >= 0.9 * n and
                        abs(qb[1] - qa[1]) > qa[2] - qa[0])
            verdict = ("unresolved" if not resolved else
                       "B better" if b_wins > a_wins else "B worse")
            bound = ""
            if "bound" in m:
                worse = sign * (qa[1] - qb[1]) / abs(qa[1]) if qa[1] else 0.0
                within = worse <= m["bound"]
                all_within &= within
                bound = (f"{'within' if within else 'EXCEEDS'} {m['bound']:g} "
                         f"(B worse by {worse:+.3f})")
            fa, fb = describe(qa), describe(qb)
            print(f"{workload:<12} {name:<26} {fa:<44} {fb:<44} "
                  f"{b_wins / n:>6.2f} {a_wins / n:>6.2f} {verdict:<11} {bound}")
    print("end-to-end medians agree within bounds" if all_within
          else "some end-to-end median is worse than its bound")
    return 0


def main(argv):
    try:
        if argv and argv[0] == "collect":
            return cmd_collect(argv[1:])
        if argv and argv[0] == "compare":
            return cmd_compare(argv[1:])
        return cmd_run(argv)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
