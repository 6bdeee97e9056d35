#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py, driven by fixture JSON.

Each case writes a (baseline, current) BENCH-file pair into a temp dir,
runs bench_compare.py as a subprocess (the same way CI invokes it) and
asserts on the exit code and the printed notes/warnings/regressions.

Run directly (python3 scripts/test_bench_compare.py) or via unittest
discovery; CI runs it on every push next to the markdown checks.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def run_compare(baseline, current, extra_args=()):
    """Writes the two fixture dicts, runs bench_compare.py, returns
    (exit_code, stdout+stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        curr_path = os.path.join(tmp, "current.json")
        with open(base_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f)
        with open(curr_path, "w", encoding="utf-8") as f:
            json.dump(current, f)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, curr_path, *extra_args],
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout + proc.stderr


class BenchCompareTest(unittest.TestCase):
    def test_identical_files_pass(self):
        doc = {"bench": "round_latency", "wall_ms": 100.0}
        code, out = run_compare(doc, doc)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_new_metric_without_baseline_notes_and_exits_zero(self):
        # The sparse-ladder scenario: the current BENCH file grew keys
        # (including wall-time-shaped ones) the committed baseline
        # predates. Each must be noted per key; the gate still passes.
        baseline = {"bench": "round_latency", "wall_ms": 100.0}
        current = {
            "bench": "round_latency",
            "wall_ms": 101.0,
            "sparse_1000000_wall_ms": 0.6,
            "sparse_1000000_touched_mean": 2100.0,
        }
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 0, out)
        self.assertIn("new metric, no baseline: 'sparse_1000000_wall_ms'",
                      out)
        self.assertIn(
            "new metric, no baseline: 'sparse_1000000_touched_mean'", out)
        # The pre-existing field still compared normally.
        self.assertIn("wall_ms", out)

    def test_wall_time_regression_fails(self):
        baseline = {"bench": "round_latency", "wall_ms": 100.0}
        current = {"bench": "round_latency", "wall_ms": 150.0}
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_new_metric_note_does_not_mask_regression(self):
        baseline = {"bench": "round_latency", "wall_ms": 100.0}
        current = {"bench": "round_latency", "wall_ms": 150.0,
                   "brand_new_wall_ms": 5.0}
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("new metric, no baseline: 'brand_new_wall_ms'", out)
        self.assertIn("REGRESSION", out)

    def test_field_missing_from_current_warns_but_passes(self):
        baseline = {"bench": "round_latency", "wall_ms": 100.0,
                    "old_wall_ms": 3.0}
        current = {"bench": "round_latency", "wall_ms": 100.0}
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 0, out)
        self.assertIn("missing from current", out)

    def test_threshold_flag_respected(self):
        baseline = {"bench": "round_latency", "wall_ms": 100.0}
        current = {"bench": "round_latency", "wall_ms": 104.0}
        code, out = run_compare(baseline, current, ["--threshold=0.02"])
        self.assertEqual(code, 1, out)
        code, out = run_compare(baseline, current, ["--threshold=0.10"])
        self.assertEqual(code, 0, out)

    def test_bit_identical_flip_fails(self):
        baseline = {"bench": "round_latency", "bit_identical": "yes"}
        current = {"bench": "round_latency", "bit_identical": "no"}
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 1, out)
        self.assertIn("determinism gate broken", out)

    def test_sha256_impl_flip_is_called_out_and_still_gated(self):
        baseline = {"bench": "round_latency", "sha256_impl": "portable",
                    "wall_ms": 100.0}
        current = {"bench": "round_latency", "sha256_impl": "x86-sha-ni",
                   "wall_ms": 60.0}
        code, out = run_compare(baseline, current)
        self.assertEqual(code, 0, out)
        self.assertIn(
            "sha256_impl changed ('portable' -> 'x86-sha-ni')", out)
        # The call-out explains a delta; it never waives the wall gate.
        code, out = run_compare(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("sha256_impl changed", out)
        self.assertIn("REGRESSION", out)

    def test_same_sha256_impl_is_silent(self):
        doc = {"bench": "round_latency", "sha256_impl": "x86-sha-ni",
               "wall_ms": 100.0}
        code, out = run_compare(doc, doc)
        self.assertEqual(code, 0, out)
        self.assertNotIn("sha256_impl", out)


if __name__ == "__main__":
    unittest.main()
