#!/usr/bin/env python3
"""Self-test of the repository benchmark, on the small smoke workloads.

Run from the repository root (builds the benchmark binary first if needed):

    python3 perfbench/test/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the verdict gate fails a run whose verdicts differ from the pinned
values, that tracing leaves results untouched, that the serial workloads'
per-layer counts repeat exactly, that shrinking through the public
minimize call matches explore()'s own, and that the benchmark refuses to
run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, BENCH)
import run as perfbench  # noqa: E402  (the runner module itself)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--seconds", "0.2", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)
        cls.binary = perfbench.build()

    def check_result(self, lines, section):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = {m["name"]: m["unit"] for m in self.spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, wanted)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        host = json.loads(lines[-2])["host"]
        for key in ("nproc", "pinning", "cpu_model", "build_type", "compiler",
                    "cxx_flags", "sanitizers"):
            self.assertIn(key, host)
        return result

    def test_every_metric_is_emitted_with_its_unit(self):
        gated = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(gated, set(perfbench.WORKLOADS))
        for workload in perfbench.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run_bench("--smoke", "--workload", workload,
                                            "--trace", trace, "--seed", "7")
                    self.assertEqual(code, 0, lines[-2:])
                    result = self.check_result(lines, section)
                    if section == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_gate_fails_a_mismatched_verdict(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                code, lines = run_bench("--smoke", "--perturb", "--trace",
                                        trace, "--workload", "mutant-sweep")
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                problems = json.loads(lines[-2])["problems"]
                self.assertTrue(any("schedules: expected" in p
                                    for p in problems), problems)

    def test_serial_counts_repeat_exactly(self):
        counts = [name for name, unit in perfbench.PER_LAYER.items()
                  if unit == "count"]
        for workload in ("mutant-sweep", "refute"):  # the jobs=1 workloads
            seen = []
            for seed in ("1", "2"):
                code, lines = run_bench("--smoke", "--workload", workload,
                                        "--trace", "1", "--seed", seed)
                self.assertEqual(code, 0, lines[-2:])
                metrics = json.loads(lines[-1])["metrics"]
                seen.append({name: metrics[name]["value"] for name in counts})
            self.assertEqual(seen[0], seen[1], workload)

    def test_public_minimize_matches_explore(self):
        scratch = os.path.join(perfbench.build_dir(), "run")
        os.makedirs(scratch, exist_ok=True)
        proc = subprocess.run([self.binary, "parity", "--workload", "refute",
                               "--smoke", "--scratch", scratch],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertTrue(json.loads(proc.stdout)["identical"])

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(perfbench.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "refute",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
