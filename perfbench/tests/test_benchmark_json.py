"""Checks BENCHMARK.json against the limits the benchmark contract sets.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.path = ROOT / "BENCHMARK.json"
        cls.spec = json.loads(cls.path.read_text())

    def test_size_and_keys(self):
        self.assertLessEqual(self.path.stat().st_size, 64 * 1024)
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})

    def test_command_and_paths(self):
        command, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertTrue((ROOT / path).is_dir())
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertIsInstance(self.spec["run_seconds"], int)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_units_and_counts(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        names = [w["name"] for w in self.spec["workloads"]]
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is reused")

    def test_bounds_and_setup(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
