#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at 1/100 of its population,
untraced and traced.  Each run must pass every output check and report
every metric BENCHMARK.json names, with its unit.

    python3 perfbench/tests/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = {"setup_1m"}


def smoke_run(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise AssertionError(f"run.py exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        lines, result = smoke_run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertFalse([l for l in lines if "check failed" in l])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
        return metrics

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1, SPEC["per_layer"])
                self.assertGreater(metrics["sim.events"]["value"], 0)
                wire = [n for n in metrics if n.startswith("parallel.")]
                for name in wire:
                    if workload in IN_PROCESS:
                        self.assertEqual(metrics[name]["value"], 0.0, name)
                    else:
                        self.assertGreater(metrics[name]["value"], 0.0, name)


if __name__ == "__main__":
    unittest.main()
