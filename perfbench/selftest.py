"""Quick self-test of the benchmark on the `tiny` workload (about 20 s).

    python3 perfbench/selftest.py      # from the root of a source checkout

Checks that every metric BENCHMARK.json names is printed with its unit, that a
tampered golden value turns into failed operations, and that the traced self
times of one invocation sum to no more than its wall time.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny",
         "--seed", str(run.DEFAULT_SEED), "--seconds", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)
        cls.work = os.path.join(ROOT, ".perfbench-work", f"selftest-{os.getpid()}")
        os.makedirs(cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(cls.work))
        except OSError:
            pass  # a benchmark run still uses it

    def assert_metrics(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({m["name"] for m in specs}, set(result["metrics"]))
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        result = bench("--trace", "0")
        self.assert_metrics(result, self.spec["end_to_end"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)

    def test_per_layer_metrics(self):
        result = bench("--trace", "1")
        self.assert_metrics(result, self.spec["per_layer"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_tampered_golden_fails(self):
        with open(run.GOLDEN_PATH) as fh:
            golden = json.load(fh)["tiny"]
        golden["fingerprint"]["score_buckets"][3] *= 1.0 + 1e-6
        work = os.path.join(self.work, "tampered")
        os.makedirs(work)
        runner = run.Runner(work, WORKLOADS["tiny"], run.DEFAULT_SEED, golden,
                            time.monotonic() + 120, os.path.join(ROOT, "src"))
        metrics = run.measure(runner, 2, False)
        self.assertGreater(runner.attempted, 0)
        self.assertEqual(runner.failed, runner.attempted)
        self.assertEqual(metrics["success_rate"], 0.0)

    def test_traced_self_times_fit_in_wall_time(self):
        w = WORKLOADS["tiny"]
        work = os.path.join(self.work, "traced")
        os.makedirs(work)
        runner = run.Runner(work, w, run.DEFAULT_SEED, None, time.monotonic() + 120,
                            os.path.join(ROOT, "src"))
        runner.setup()
        inv = runner.invoke(traced=True)
        self.assertEqual(runner.failed, 0)
        layers = run.layer_metrics(inv.spans)
        self.assertGreater(layers["self_sum_s"], 0.0)
        self.assertLessEqual(layers["self_sum_s"], inv.wall)

    def test_default_seeds_flag_cells(self):
        with open(run.GOLDEN_PATH) as fh:
            golden = json.load(fh)
        for name in WORKLOADS:
            self.assertGreater(golden[name]["instrumentation"]["cells_flagged"], 0, name)


if __name__ == "__main__":
    unittest.main()
