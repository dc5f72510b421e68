#!/usr/bin/env python3
"""Unit test for compare.py over the fixtures in testdata/.

parent.json holds 10 seeds of workload "w" whose throughput spreads about
1% (bound 5%) and whose op p99 spreads about 2% (bound 10%). Each other
fixture changes one thing against it.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "testdata"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def load(name):
    return json.loads((DATA / name).read_text())


def rows_by_metric(change):
    rows, failing = compare.compare(load("parent.json"), load(change),
                                    load("spec.json"))
    return {r["metric"]: r for r in rows}, failing


def cli(change):
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(DATA / "parent.json"),
         str(DATA / change), "--spec", str(DATA / "spec.json")],
        capture_output=True, text=True).returncode


class CompareTest(unittest.TestCase):
    def test_clear_regression_is_worse_and_fails(self):
        rows, failing = rows_by_metric("regression.json")
        self.assertEqual(rows["throughput_ops_s"]["verdict"], "worse")
        self.assertAlmostEqual(rows["throughput_ops_s"]["worse_by"], 0.15)
        self.assertEqual(rows["op_p99_us"]["verdict"], "unchanged")
        self.assertTrue(failing)
        self.assertEqual(cli("regression.json"), 1)

    def test_move_within_noise_is_unchanged_and_claims_nothing(self):
        # Every seed is 0.5 ops/s faster, so all 10 pairs win, but the
        # medians differ by less than the parent's IQR: no claim.
        rows, failing = rows_by_metric("noise.json")
        self.assertEqual(rows["throughput_ops_s"]["verdict"], "unchanged")
        self.assertFalse(rows["throughput_ops_s"]["claim"])
        self.assertEqual(rows["op_p99_us"]["verdict"], "unchanged")
        self.assertFalse(failing)
        self.assertEqual(cli("noise.json"), 0)

    def test_spread_wider_than_bound_is_unresolved(self):
        rows, failing = rows_by_metric("unresolved.json")
        self.assertEqual(rows["op_p99_us"]["verdict"], "unresolved")
        self.assertGreater(rows["op_p99_us"]["spread"], 0.10)
        self.assertFalse(failing)
        self.assertEqual(cli("unresolved.json"), 0)

    def test_clear_improvement_is_better_and_claimed(self):
        rows, failing = rows_by_metric("improvement.json")
        self.assertEqual(rows["throughput_ops_s"]["verdict"], "better")
        self.assertTrue(rows["throughput_ops_s"]["claim"])
        self.assertFalse(failing)
        self.assertEqual(cli("improvement.json"), 0)

    def test_more_failed_ops_fails(self):
        rows, failing = rows_by_metric("more_failures.json")
        self.assertEqual(rows["failed_op_frac"]["verdict"], "worse")
        self.assertTrue(failing)
        self.assertEqual(cli("more_failures.json"), 1)

    def test_identical_sets_agree(self):
        rows, failing = rows_by_metric("parent.json")
        self.assertEqual({r["verdict"] for r in rows.values()}, {"unchanged"})
        self.assertFalse(failing)


if __name__ == "__main__":
    unittest.main()
