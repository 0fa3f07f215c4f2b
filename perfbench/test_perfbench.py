"""Tests of the benchmark itself, at smoke size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run perfbench/run.py with --smoke (small groups, few operations) and
check that the printed metric names and units match BENCHMARK.json exactly
and that run.py's correctness and determinism checks pass ("correct").
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "gka_perfbench")


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_digest(workload, seed, threads):
    env = dict(os.environ, IDGKA_THREADS=str(threads))
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed), "--smoke",
                           "--check"], env=env, stdout=subprocess.PIPE, text=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]
        cls.results = {}
        for workload in cls.workloads:
            for trace in (0, 1):
                cls.results[workload, trace] = run_bench(workload, trace)

    def assert_metrics_match(self, trace, section):
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                rc, result = self.results[workload, trace]
                self.assertEqual(rc, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), list(expected))
                for name, metric in result["metrics"].items():
                    self.assertEqual(set(metric), {"value", "unit"})
                    self.assertTrue(metric["unit"])
                    self.assertEqual(metric["unit"], expected[name])
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_names_and_units_match(self):
        self.assert_metrics_match(0, "end_to_end")

    def test_per_layer_names_and_units_match(self):
        self.assert_metrics_match(1, "per_layer")

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in self.workloads:
            for name, metric in self.results[workload, 0][1]["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_retransmissions_only_on_the_lossy_link(self):
        for workload in self.workloads:
            retx = self.results[workload, 1][1]["metrics"]["engine.retx_ratio"]["value"]
            with self.subTest(workload=workload):
                if workload == "hier_lossy":
                    self.assertGreater(retx, 0)
                else:
                    self.assertEqual(retx, 0)

    def test_workloads_match_run_py(self):
        sys.path.insert(0, HERE)
        import run  # noqa: E402
        self.assertEqual(tuple(self.workloads), run.WORKLOADS)


class Determinism(unittest.TestCase):
    # run.py compares IDGKA_THREADS=1 with the default thread count, which is
    # 1 on a one-core host. This pins a four-thread comparison on any host.
    def test_four_threads_match_one(self):
        one = check_digest("multigroup", 5, 1)
        four = check_digest("multigroup", 5, 4)
        self.assertTrue(one["correct"] and four["correct"])
        self.assertEqual(one["digest"], four["digest"])
        self.assertEqual(one["records"], four["records"])


if __name__ == "__main__":
    unittest.main()
