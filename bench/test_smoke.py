"""Smoke test of the benchmark itself: every workload, tiny, both modes.

    python3 bench/test_smoke.py

Validates BENCHMARK.json, the last-line JSON of each run, the metric names
and the refusal to run without the package sources.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# layers render-calib must never touch
DECISION_LAYERS = ("membership.", "series.", "expansions.", "sweep.")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(spec["paths"], ["bench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["sweep-k20", "decide-mixed", "render-calib"])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class RunTest(unittest.TestCase):
    def check_result(self, proc, wanted: list[dict]) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        self.assertIn('"python"', proc.stdout)  # the environment line
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(math.isfinite(got["value"]))
        return result["metrics"]

    def test_workloads_untraced(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(run_bench(ROOT, w["name"], 0), spec["end_to_end"])
                for name, got in metrics.items():
                    self.assertGreater(got["value"], 0, name)

    def test_workloads_traced(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(run_bench(ROOT, w["name"], 1), spec["per_layer"])
                self.assertGreater(metrics["trace.spans"]["value"], 0)
                if w["name"] == "render-calib":
                    for name, got in metrics.items():
                        if name.startswith(DECISION_LAYERS):
                            self.assertEqual(got["value"], 0, name)
                    self.assertGreater(metrics["render.rasterize.ms"]["value"], 0)
                else:
                    self.assertGreater(metrics["membership.survivors.ms"]["value"], 0)
                    self.assertEqual(metrics["render.rasterize.ms"]["value"], 0)

    def test_refuses_checkout_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench(bare, "decide-mixed", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
