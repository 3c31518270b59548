"""Tests of the harness's own code: the spread statistic and BENCHMARK.json.

Run with `python3 perfbench/run.py --selftest`, which builds perfbench,
runs perfbench_stats_test (percentiles and the failure-ratio base) and then
these tests.
"""

import json
import re
import subprocess
import unittest
from pathlib import Path

from spread import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class RelativeSpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        # Exclusive quartiles of 1..9 are 2.5 and 7.5; the median is 5.
        self.assertAlmostEqual(relative_spread(list(range(1, 10))), 1.0)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(relative_spread([4.0] * 10), 0.0)

    def test_zero_median_is_infinitely_wide(self):
        self.assertEqual(relative_spread([0, 0, 0, 1]), float("inf"))

    def test_spread_is_relative(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        scaled = [v * 1000 for v in values]
        self.assertAlmostEqual(relative_spread(values),
                               relative_spread(scaled))


class BenchmarkJsonTest(unittest.TestCase):
    def test_schema(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load_spec()["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    @unittest.skipUnless(BINARY.exists(), "perfbench is not built")
    def test_matches_the_binary(self):
        out = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        rows = [json.loads(line) for line in out.splitlines()]
        spec = load_spec()
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[kind]],
                [(r["name"], r["unit"], r["better"]) for r in rows
                 if r["kind"] == kind])
        self.assertEqual(spec["workloads"],
                         [{"name": r["name"], "why": r["why"]} for r in rows
                          if r["kind"] == "workload"])


if __name__ == "__main__":
    unittest.main()
