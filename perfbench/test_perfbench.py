#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

They build the benchmark like any run does (the first call builds).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["lake-train", "taxi-sync", "fleet-preempt", "serve-mixed"]


def bench(workload, *extra, seconds="0.5", trace="0", cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", trace, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SmallRuns(unittest.TestCase):
    """A small run of each workload shows every metric with its unit."""

    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        for workload in WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = result(bench(workload, "--small", trace=trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if kind == "end_to_end":
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class RecordedChecks(unittest.TestCase):
    """The shipped seeds compare against recorded values."""

    def test_shipped_seed_passes_and_a_changed_digest_fails(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            recorded = json.load(f)
        self.assertIn("3", recorded["lake-train"])
        r = result(bench("lake-train", seconds="0"))
        self.assertTrue(r["correct"])

        digest = recorded["lake-train"]["3"]["q_digest"]
        recorded["lake-train"]["3"]["q_digest"] = \
            digest[:-1] + ("0" if digest[-1] != "0" else "1")
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", dir=SCRATCH, delete=False) as f:
            json.dump(recorded, f)
        try:
            r = result(bench("lake-train", "--expected", f.name, seconds="0"))
        finally:
            os.unlink(f.name)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])


class WithoutTheProgram(unittest.TestCase):
    """Given only BENCHMARK.json and perfbench/, a run fails cleanly."""

    def test_fails_without_printing_a_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("lake-train", cwd=scratch,
                         run=os.path.join(scratch, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
