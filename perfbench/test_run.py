#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic and output checks.

    python3 perfbench/test_run.py

The EndToEnd cases build apex_perfbench (as run.py does) and run it with an
injected fault, so they take a few seconds.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Metric names and units as BENCHMARK.json allows them.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def raw_report(oks, trace=0):
    return {
        "workload": "sim-bfs", "seed": 1, "trace": trace,
        "setup_s": [0.002, 0.001, 0.003],
        "ops": [{"s": 1.0 + i, "ok": ok, "work": 100 + i}
                for i, ok in enumerate(oks)],
        "failures": [], "trace_errors": [], "peak_rss_kb": 2048,
        "samples": {"sim.steps": [5.0, 1.0, 3.0]},
        "totals": {"exec.work": 100.0},
        "info": {},
    }


class Arithmetic(unittest.TestCase):
    def test_median_with_sample_count(self):
        self.assertEqual(run.median_with_count([3.0, 1.0, 2.0]), (2.0, 3))
        self.assertEqual(run.median_with_count([4.0, 1.0]), (2.5, 2))
        self.assertEqual(run.median_with_count([7.5]), (7.5, 1))
        with self.assertRaises(ValueError):
            run.median_with_count([])

    def test_fail_rate_over_attempts(self):
        self.assertEqual(run.fail_rate(4, 0), 0.0)
        self.assertEqual(run.fail_rate(4, 1), 0.25)
        self.assertEqual(run.fail_rate(3, 3), 1.0)
        for attempted, failed in ((0, 0), (2, 3), (2, -1)):
            with self.assertRaises(ValueError):
                run.fail_rate(attempted, failed)

    def test_metric_name_charset(self):
        for good in ("setup_s", "clock.work_share", "a-b.c_9", "9x", "x" * 64):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_x", ".x", "op s", "lat(ms)", "a/b", "x" * 65,
                    "é"):
            self.assertFalse(valid_name(bad), bad)

    def test_declared_metrics_are_well_formed(self):
        names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(valid_name(name), name)
            self.assertIsNotNone(UNIT_RE.fullmatch(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_end_to_end_values(self):
        res = run.aggregate(raw_report([True, True, True]), trace=0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        m = res["metrics"]
        self.assertEqual([name for name, _, _ in run.END_TO_END], list(m))
        self.assertEqual(m["setup_s"]["value"], 0.002)
        self.assertEqual(m["op_s_p50"]["value"], 2.0)
        self.assertEqual(m["peak_rss_mb"], {"value": 2.0, "unit": "MB"})

    def test_injected_failed_operation_raises_fail_rate(self):
        clean = run.aggregate(raw_report([True] * 4), trace=0)
        self.assertTrue(clean["correct"])
        self.assertEqual(run.fail_rate(clean["attempted"], clean["failed"]),
                         0.0)
        hurt = run.aggregate(raw_report([True, False, True, True]), trace=0)
        self.assertFalse(hurt["correct"])
        self.assertEqual((hurt["attempted"], hurt["failed"]), (4, 1))
        self.assertEqual(run.fail_rate(hurt["attempted"], hurt["failed"]),
                         0.25)

    def test_trace_self_check_failure_makes_run_incorrect(self):
        raw = raw_report([True], trace=1)
        raw["trace_errors"] = ["op 0: observed steps != total_work"]
        self.assertFalse(run.aggregate(raw, trace=1)["correct"])

    def test_per_layer_values(self):
        res = run.aggregate(raw_report([True], trace=1), trace=1)
        m = res["metrics"]
        self.assertEqual([name for name, _, _ in run.PER_LAYER], list(m))
        self.assertEqual(m["sim.steps"]["value"], 3.0)     # median
        self.assertEqual(m["exec.work"]["value"], 100.0)   # run total
        self.assertEqual(m["host.run_s"]["value"], 0.0)    # layer not entered

    def test_unknown_layer_metric_is_rejected(self):
        raw = raw_report([True], trace=1)
        raw["samples"]["sim.stpes"] = [1.0]
        with self.assertRaises(ValueError):
            run.aggregate(raw, trace=1)

    def test_benchmark_json_lists_the_same_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class EndToEnd(unittest.TestCase):
    def run_injected(self, workload):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "0",
             "--inject-fault"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_bad_simulator_output_is_counted_as_failed(self):
        out, res = self.run_injected("sim-bfs")
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("FAILURE: op 0: consistency oracle", out)

    def test_oracle_violation_fails_a_fuzz_operation(self):
        out, res = self.run_injected("fuzz")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("FAILURE: op 0:", out)
        self.assertIn("failed trial(s)", out)


if __name__ == "__main__":
    unittest.main()
