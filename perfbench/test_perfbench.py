#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, both modes.

    python3 perfbench/test_perfbench.py

Checks that each run ends with a result line holding exactly the metrics
BENCHMARK.json names, with their units, and that every check passed.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, spec_key):
        proc = run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        return result["metrics"]

    def test_end_to_end_metrics_are_positive(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, "end_to_end")
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_layer(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1, "per_layer")
                self.assertGreater(
                    metrics["qecool.spend_ns_per_lane_round"]["value"], 0)

    def test_unknown_workload_fails_without_result(self):
        proc = run("--workload", "bogus")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
