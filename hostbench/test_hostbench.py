#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs of every workload, untraced and
traced, plus checks that the correctness oracle and the build guard bite.

Run from the repository root:

    python3 hostbench/test_hostbench.py

Each smoke run plans one small job per workload and takes seconds (the
first run also builds the driver).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "hostbench-test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("hostbench", "run.py")] + list(args),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            value = metrics[m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])

    def test_every_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run("--workload", w["name"], "--seed", "3",
                               "--seconds", "1", "--trace", trace,
                               "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.check_metrics(result_of(proc), declared)
                    if trace == "0":
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                result_of(proc)["metrics"][m["name"]]
                                ["value"], 0.0, m["name"])

    def test_corrupted_expected_digest_fails_the_run(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bad = os.path.join(SCRATCH, "expected-corrupt.txt")
        with open(os.path.join(HERE, "expected.txt")) as f:
            rows = f.read().splitlines()
        key = "bert-1.67b/dgx1/PipeDream/mb12/mpm1/mini24"
        corrupted = []
        for row in rows:
            fields = row.split()
            if fields and fields[0] == key:
                fields[1] = "%016x" % (int(fields[1], 16) ^ 1)
                row = " ".join(fields)
            corrupted.append(row)
        self.assertNotEqual(rows, corrupted)
        with open(bad, "w") as f:
            f.write("\n".join(corrupted) + "\n")
        proc = run("--workload", "bert-dgx1", "--seed", "3", "--seconds",
                   "1", "--trace", "0", "--smoke", "--expected", bad)
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(key, proc.stderr)

    def test_rejects_seconds_past_the_time_budget(self):
        for seconds in ("46", "0", "abc"):
            with self.subTest(seconds=seconds):
                proc = run("--workload", "bert-dgx1", "--seed", "1",
                           "--seconds", seconds, "--trace", "1")
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout.strip(), "")
                self.assertIn("--seconds", proc.stderr)

    def test_fails_without_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = run("--workload", "bert-dgx1", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=bare, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
