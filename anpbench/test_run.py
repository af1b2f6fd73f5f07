"""Contract tests of the benchmark's command line and result line.

Runs every workload in both trace modes through run.py (one short pass
each) and checks the result line against BENCHMARK.json. From the
repository root:

    python3 -m unittest discover -s anpbench -p 'test_*.py'
"""

import json
import math
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    """Runs run.py from the repository root; returns the process."""
    return subprocess.run(
        ["python3", os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )


class ResultLine(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.bench = json.load(f)

    def expected(self, trace):
        key = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = run("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    lines = done.stdout.strip().splitlines()
                    machine = json.loads(lines[0])["machine"]
                    for key in ("nproc", "rustc", "profile", "commit", "workload_seed"):
                        self.assertIn(key, machine)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, self.expected(trace == "1"))
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_bad_arguments_fail_without_a_result(self):
        done = run("--workload", "no_such_workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
