#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py        (from the repository root)

Runs every workload at the shortest length run.py allows (one session,
two when traced) and checks that each run prints every metric named in
BENCHMARK.json with its unit, that the names match, and that the output
check fails on a deliberately perturbed config.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stderr


class NamesMatch(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_expected_covers_every_slot(self):
        expected = json.loads(run.EXPECTED.read_text())
        for w in run.WORKLOADS:
            slots = run.EXPLORE_SLOTS if w.startswith("explore") else 1
            self.assertEqual(sorted(expected[w]),
                             sorted(str(s) for s in range(slots)))


class EveryWorkloadTiny(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, result, _ = bench(w, 0)
                self.assertEqual(rc, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, result, _ = bench(w, 1)
                self.assertEqual(rc, 0)
                self.check_metrics(result, SPEC["per_layer"])


class OutputCheckCanFail(unittest.TestCase):
    def test_perturbed_config_is_failed(self):
        # maxNtPathLength + 1 on every run changes the results, so the
        # digest check must count every run of the session as failed.
        for w in ("detect", "explore"):
            with self.subTest(workload=w):
                rc, result, err = bench(w, 0, "--perturb")
                self.assertIn("digest", err)
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
