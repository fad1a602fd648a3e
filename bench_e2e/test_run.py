#!/usr/bin/env python3
"""Tests of the benchmark itself: planted faults end as counted failures
within the deadline, and percentiles are reported with their sample counts.

Run from the root of a checkout (builds bench_e2e on first use):

    python3 bench_e2e/test_run.py
"""

import json
import os
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra, timeout=170):
    """Runs run.py; returns (exit code, stdout lines, result object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "5",
         "--trace", "0", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class PlantedFaults(unittest.TestCase):
    def test_flipped_byte_in_retained_file_is_a_counted_failure(self):
        code, lines, result = run("--workload", "panda_irregular",
                                  "--seconds", "1", "--plant", "corrupt")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertTrue(any("error: verify snap" in l for l in lines), lines)

    def test_planted_hang_is_a_counted_failure_within_the_deadline(self):
        started = time.monotonic()
        code, lines, result = run("--workload", "panda_irregular",
                                  "--seconds", "1", "--plant", "hang",
                                  "--deadline", "20")
        self.assertLess(time.monotonic() - started, 60)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})
        self.assertTrue(any("deadline of 20 s expired" in l for l in lines),
                        lines)


class Reporting(unittest.TestCase):
    def test_percentiles_are_reported_with_their_sample_counts(self):
        code, lines, result = run("--workload", "trochdf_overlap",
                                  "--seconds", "1")
        self.assertEqual(code, 0, lines)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))
        for name in result["metrics"]:
            if ".p50" not in name and ".p90" not in name:
                continue
            row = next(l for l in lines if l.split()[:1] == [name])
            samples = int(row.split("(n=")[1].rstrip(")"))
            # p90 needs at least ten samples beyond it.
            self.assertGreaterEqual(samples, 100, row)


if __name__ == "__main__":
    unittest.main()
