"""Command-line contract of the end-to-end benchmark.

Run from the repository root:

    python3 -m unittest discover -s e2e_bench/tests

The run.py checks need no build. The binary checks run when
.bench_build/e2e_bench exists (any earlier benchmark run builds it).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN_PY = os.path.join(BENCH, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "e2e_bench")


def run(command, timeout=60):
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)


class RunPyTest(unittest.TestCase):
    def run_py(self, *args):
        return run([sys.executable, RUN_PY, *args])

    def assert_usage_error(self, *args):
        done = self.run_py(*args)
        self.assertEqual(done.returncode, 2, done.stderr)
        self.assertIn("usage:", done.stderr)
        self.assertEqual(done.stdout, "")

    def test_help_prints_usage_without_running(self):
        done = self.run_py("--help")
        self.assertEqual(done.returncode, 0)
        self.assertIn("usage:", done.stdout)
        self.assertNotIn('"metrics"', done.stdout)

    def test_unknown_flag_is_rejected(self):
        # A misspelt or foreign flag must not fall back to a default run.
        self.assert_usage_error("--workload", "e2e_fleet", "--duration", "300")

    def test_flag_abbreviation_is_rejected(self):
        self.assert_usage_error("--work", "e2e_device")

    def test_unknown_workload_is_rejected(self):
        self.assert_usage_error("--workload", "e2e_nothing")

    def test_missing_workload_is_rejected(self):
        self.assert_usage_error("--seed", "3")

    def test_malformed_values_are_rejected(self):
        self.assert_usage_error("--workload", "e2e_device", "--trace", "2")
        self.assert_usage_error("--workload", "e2e_device", "--seconds", "0")
        self.assert_usage_error("--workload", "e2e_device", "--seed", "x")


@unittest.skipUnless(os.path.exists(BINARY), "benchmark binary not built")
class BinaryTest(unittest.TestCase):
    def test_unknown_flag_exits_2(self):
        done = run([BINARY, "--workload", "e2e_fleet", "--duration", "300"])
        self.assertEqual(done.returncode, 2)
        self.assertIn("usage:", done.stderr)
        self.assertEqual(done.stdout, "")

    def test_unknown_workload_exits_2(self):
        done = run([BINARY, "--workload", "fleet_qps"])
        self.assertEqual(done.returncode, 2)
        self.assertIn("usage:", done.stderr)

    def test_help_exits_0(self):
        done = run([BINARY, "--help"])
        self.assertEqual(done.returncode, 0)
        self.assertIn("usage:", done.stdout)

    def test_catalog_matches_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = {"end_to_end": [], "per_layer": []}
        for line in run([BINARY, "--list-metrics"]).stdout.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(listed[kind],
                             [(m["name"], m["unit"]) for m in spec[kind]])


if __name__ == "__main__":
    unittest.main()
