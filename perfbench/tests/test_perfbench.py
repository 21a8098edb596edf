#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs at tiny size, untraced and traced, and must print every
metric BENCHMARK.json declares, with its unit. Each correctness gate is then
tripped by corrupting its input (maroon_perfbench --corrupt GATE), and the
run must fail loudly: exit code 1, correct=false, a "gate ... FAILED" line.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_tiny(workload, trace, *extra):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, declared):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                done, result = run_tiny(workload, trace)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in declared})
                for metric in declared:
                    printed = result["metrics"][metric["name"]]
                    self.assertEqual(printed["unit"], metric["unit"],
                                     metric["name"])
                    self.assertIsInstance(printed["value"], (int, float))

    def test_end_to_end_metrics_untraced(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics_traced(self):
        self.check(1, SPEC["per_layer"])


class GatesTrip(unittest.TestCase):
    # (corruption, workload, trace, gate expected to fail)
    CASES = [
        ("round", "batch_dblp", 0, "round_assignment"),
        ("link_f1", "batch_dblp", 0, "link_f1_floor"),
        ("width", "batch_dblp", 1, "width2_equals_width1"),
        ("recomposition", "batch_dblp", 1, "recomposition_equals_link"),
        ("link_all", "batch_dblp", 1, "recomposition_equals_link_all"),
        ("accounted", "batch_dblp", 1, "layers_account_for_link_all"),
        ("ingest_f1", "stream_ingest", 0, "ingest_f1_floor"),
        ("accounting", "stream_ingest", 0, "stream_accounting"),
        ("recover", "stream_ingest", 0, "recovered_equals_live"),
        ("reference", "stream_ingest", 0, "stream_store_equals_reference"),
    ]

    def test_each_gate_trips_on_corrupted_input(self):
        for corruption, workload, trace, gate in self.CASES:
            with self.subTest(corruption=corruption):
                done, result = run_tiny(workload, trace, "--corrupt",
                                        corruption)
                self.assertEqual(done.returncode, 1, done.stdout)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn(f"# gate {gate} FAILED", done.stdout)


class Packaging(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "batch_dblp", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                check=False, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)

    def test_repeat_helper_summarizes_every_metric(self):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "repeat.py"),
             "--workload", "stream_ingest", "--runs", "2", "--seconds", "2",
             "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, check=False,
            timeout=600)
        self.assertIn(done.returncode, (0, 3), done.stdout + done.stderr)
        for metric in SPEC["end_to_end"]:
            self.assertIn(metric["name"], done.stdout)


if __name__ == "__main__":
    unittest.main()
