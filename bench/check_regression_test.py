#!/usr/bin/env python3
"""Tests for bench/check_regression, the perf-regression gate.

Run: python3 bench/check_regression_test.py  (stdlib unittest; ctest runs it
as check_regression_test).
"""

import contextlib
import importlib.machinery
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
import unittest.mock

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_regression")
_LOADER = importlib.machinery.SourceFileLoader("check_regression", _PATH)
gate = importlib.util.module_from_spec(
    importlib.util.spec_from_loader("check_regression", _LOADER))
_LOADER.exec_module(gate)


def envelope(**fields):
    """A report with a passing harness envelope plus `fields`."""
    report = {"bench": "t", "shape_checks": {"claim": True}}
    report.update(fields)
    return report


def run(baselines, reports):
    """Runs the gate over {file: baseline} and {file: report}; returns
    (exit status, {(file, key): result})."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for sub, files in (("baselines", baselines), ("bench", reports)):
            dirs[sub] = os.path.join(tmp, sub)
            os.mkdir(dirs[sub])
            for name, body in files.items():
                with open(os.path.join(dirs[sub], name), "w") as f:
                    json.dump(body, f)
        out = os.path.join(tmp, "REGRESSIONS.json")
        argv = ["check_regression", "--baselines", dirs["baselines"],
                "--bench-dir", dirs["bench"], "--out", out]
        with contextlib.redirect_stdout(io.StringIO()), \
                unittest.mock.patch.object(sys, "argv", argv):
            status = gate.main()
        with open(out) as f:
            results = json.load(f)["results"]
    return status, {(r["file"], r["key"]): r for r in results}


def one_key(rule, value):
    """Gates a single key `m` holding `value` under `rule`."""
    return run({"BENCH_t.json": {"keys": {"m": rule}}},
               {"BENCH_t.json": envelope(m=value)})


class RuleTest(unittest.TestCase):

    def test_min(self):
        self.assertEqual(one_key({"min": 5}, 5)[0], 0)
        self.assertEqual(one_key({"min": 5}, 4.9)[0], 1)

    def test_max(self):
        self.assertEqual(one_key({"max": 5}, 5)[0], 0)
        self.assertEqual(one_key({"max": 5}, 5.1)[0], 1)

    def test_equals(self):
        self.assertEqual(one_key({"equals": 4.0}, 4)[0], 0)
        self.assertEqual(one_key({"equals": 4.0}, 4.5)[0], 1)

    def test_value_band_min_direction(self):
        rule = {"value": 100, "tolerance_pct": 25, "direction": "min"}
        self.assertEqual(one_key(rule, 75)[0], 0)
        self.assertEqual(one_key(rule, 74.9)[0], 1)
        self.assertEqual(one_key(rule, 1e9)[0], 0)

    def test_value_band_max_direction(self):
        rule = {"value": 100, "tolerance_pct": 25, "direction": "max"}
        self.assertEqual(one_key(rule, 125)[0], 0)
        self.assertEqual(one_key(rule, 125.1)[0], 1)
        self.assertEqual(one_key(rule, 0)[0], 0)


class MissingTest(unittest.TestCase):

    def test_missing_report_fails(self):
        status, results = run({"BENCH_t.json": {"keys": {"m": {"min": 0}}}},
                              {})
        self.assertEqual(status, 1)
        self.assertEqual(results[("BENCH_t.json", "(report)")]["bound"],
                         "report missing")

    def test_missing_key_fails(self):
        status, results = run({"BENCH_t.json": {"keys": {"m": {"min": 0}}}},
                              {"BENCH_t.json": envelope(other=1)})
        self.assertEqual(status, 1)
        self.assertEqual(results[("BENCH_t.json", "m")]["bound"], "key missing")

    def test_bool_is_not_a_number(self):
        status, results = one_key({"min": 1}, True)
        self.assertEqual(status, 1)
        self.assertEqual(results[("BENCH_t.json", "m")]["bound"], "key missing")


class LookupTest(unittest.TestCase):

    def test_nested_path(self):
        self.assertEqual(gate.lookup({"a": {"b": {"c": 3}}}, "a.b.c"), 3)

    def test_longest_prefix_takes_dotted_counter_names(self):
        report = {"sender_counters": {"glue.send.sg_frames": 7,
                                      "glue.send": 1}}
        self.assertEqual(
            gate.lookup(report, "sender_counters.glue.send.sg_frames"), 7)
        self.assertEqual(gate.lookup(report, "sender_counters.glue.send"), 1)
        self.assertIsNone(gate.lookup(report, "sender_counters.glue.recv"))

    def test_gate_reads_dotted_counter_names(self):
        status, _ = run(
            {"BENCH_t.json": {"keys": {"counters.fs.journal.commits":
                                       {"min": 1}}}},
            {"BENCH_t.json": envelope(counters={"fs.journal.commits": 2})})
        self.assertEqual(status, 0)


class EnvelopeTest(unittest.TestCase):

    def test_passing_envelope(self):
        status, results = run({"BENCH_t.json": {"keys": {}}},
                              {"BENCH_t.json": envelope()})
        self.assertEqual(status, 0)
        self.assertTrue(results[("BENCH_t.json", "shape_checks.claim")]["ok"])

    def test_false_shape_check_fails(self):
        report = envelope()
        report["shape_checks"]["broken"] = False
        status, results = run({"BENCH_t.json": {"keys": {}}},
                              {"BENCH_t.json": report})
        self.assertEqual(status, 1)
        self.assertFalse(results[("BENCH_t.json", "shape_checks.broken")]["ok"])

    def test_missing_shape_checks_fails(self):
        status, results = run({"BENCH_t.json": {"keys": {}}},
                              {"BENCH_t.json": {"bench": "t"}})
        self.assertEqual(status, 1)
        self.assertFalse(results[("BENCH_t.json", "shape_checks")]["ok"])

    def test_missing_bench_name_fails(self):
        status, results = run({"BENCH_t.json": {"keys": {}}},
                              {"BENCH_t.json": {"shape_checks": {}}})
        self.assertEqual(status, 1)
        self.assertFalse(results[("BENCH_t.json", "bench")]["ok"])

    def test_unbaselined_report_is_checked_too(self):
        report = envelope()
        report["shape_checks"]["claim"] = False
        status, results = run({"BENCH_t.json": {"keys": {}}},
                              {"BENCH_t.json": envelope(),
                               "BENCH_new.json": report})
        self.assertEqual(status, 1)
        self.assertFalse(results[("BENCH_new.json", "shape_checks.claim")]["ok"])


if __name__ == "__main__":
    unittest.main()
