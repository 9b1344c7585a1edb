#!/usr/bin/env python3
"""Self-test of the DSKG benchmark at its smallest size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py at a tiny
dataset scale and checks that:
  * the untraced run prints exactly the end-to-end metrics, each with its
    unit and a non-zero value, and passes its correctness gate;
  * the traced run prints exactly the per-layer metrics with their units
    and writes its Chrome trace;
  * a deliberately wrong expected row count (--inject-row-error) fails the
    correctness gate;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
SEED = "7"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", SEED,
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", SCALE, *extra]
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=900)
    lines = r.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r.returncode, result, r.stderr.decode()


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        printed = result["metrics"]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in specs))
        for m in specs:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_and_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, err = run(w["name"], 0)
                self.assertEqual(rc, 0, err[-2000:])
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics_and_trace_file(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, err = run(w["name"], 1)
                self.assertEqual(rc, 0, err[-2000:])
                self.check_metrics(result, SPEC["per_layer"])
                path = [l.split(" to ", 1)[1] for l in err.splitlines()
                        if l.startswith("trace written to ")]
                self.assertEqual(len(path), 1, err[-2000:])
                with open(path[0]) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                self.assertIn("self_ms", trace["otherData"])

    def test_wrong_expected_rows_fail_the_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, _ = run(w["name"], 0, "--inject-row-error")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        try:
            rc, result, _ = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    sys.exit(unittest.main())
