#!/usr/bin/env python3
# Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
"""The benchmark's own tests: every workload at reduced size.

    python3 perfbench/test_run.py

Each workload runs untraced and traced through run.py with --small. Every
metric BENCHMARK.json names must come back with its unit, every answer must
match the oracle, the untraced run must repeat its counts bit for bit, and
run.py must fail without printing a result when the library sources are
missing.
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
WORKLOADS = ("serve-hot", "serve-dram", "dist-replicated")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace), "--small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        return result

    def test_end_to_end_metrics_and_count_determinism(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check(workload, 0)
                self.assertEqual(first["metrics"]["exact_share"]["value"], 1)
                # The second run of the seed passes only if its counts repeat
                # (run.py marks a drift incorrect).
                second = self.check(workload, 0)
                self.assertEqual(
                    first["metrics"]["accesses_per_query"]["value"],
                    second["metrics"]["accesses_per_query"]["value"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)["metrics"]
                self.assertGreater(metrics["lists.row_ns"]["value"], 0)
                self.assertGreater(metrics["tracker.mark_ns"]["value"], 0)
                self.assertGreater(metrics["core.BPA.run_ms.p50"]["value"], 0)
                if workload == "dist-replicated":
                    self.assertGreater(
                        metrics["dist.replica_failovers"]["value"], 0)
                    self.assertGreater(metrics["dist.owner_ms.p50"]["value"], 0)
                else:
                    self.assertGreater(metrics["server.run_ms.p50"]["value"], 0)

    def test_fails_without_the_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        try:
            done = run("serve-hot", 0, cwd=isolated)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
