"""Metric names, units and the result line (harness/metrics.py), checked
against BENCHMARK.json."""

import json
import math
import os
import unittest

from harness import metrics

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


class GrammarTest(unittest.TestCase):
    def test_names_follow_the_grammar_and_are_unique(self):
        names = [row[0] for row in metrics.END_TO_END + metrics.PER_LAYER]
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_units_follow_the_grammar(self):
        for row in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertRegex(row[1], metrics.UNIT_RE)

    def test_grammar_rejects_bad_names(self):
        for bad in ["", "_lead", ".lead", "has space", "a/b", "x" * 65, "p99%"]:
            self.assertIsNone(metrics.NAME_RE.match(bad), bad)
        self.assertIsNotNone(metrics.NAME_RE.match("x" * 64))

    def test_direction_and_bounds(self):
        for name, _, better, bound in metrics.END_TO_END:
            self.assertIn(better, ("lower", "higher"))
            self.assertTrue(0 < bound <= 0.25, name)
        for _, _, better in metrics.PER_LAYER:
            self.assertIn(better, ("lower", "higher"))

    def test_setup_s_has_the_largest_bound(self):
        rows = {row[0]: row for row in metrics.END_TO_END}
        self.assertEqual(rows["setup_s"][1:3], ("s", "lower"))
        self.assertEqual(rows["setup_s"][3], max(row[3] for row in metrics.END_TO_END))

    def test_every_benchmark_scheduler_has_a_plan_metric(self):
        names = {row[0] for row in metrics.PER_LAYER}
        for scheduler in metrics.BENCHMARK_ROSTER:
            self.assertIn("sched.plan.%s.busy_s" % scheduler, names)


class BenchmarkJsonTest(unittest.TestCase):
    def test_catalogue_matches_benchmark_json(self):
        doc = load_benchmark()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]],
            [tuple(row) for row in metrics.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [tuple(row) for row in metrics.PER_LAYER])

    def test_benchmark_json_lists_the_runner_workloads(self):
        import run
        self.assertEqual([w["name"] for w in load_benchmark()["workloads"]], run.WORKLOADS)

    def test_benchmark_json_shape(self):
        doc = load_benchmark()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for workload in doc["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], metrics.NAME_RE)
            self.assertLessEqual(len(workload["why"]), 200)
        for row in doc["end_to_end"]:
            self.assertEqual(set(row), {"name", "unit", "better", "bound"})
        for row in doc["per_layer"]:
            self.assertEqual(set(row), {"name", "unit", "better"})
        self.assertTrue(1 <= doc["run_seconds"] <= 60)


class ResultLineTest(unittest.TestCase):
    def values(self, trace):
        return {name: 1.5 for name, _ in metrics.catalogue(trace)}

    def test_result_has_exactly_the_contract_keys(self):
        for trace in (0, 1):
            line = metrics.result_line(self.values(trace), trace, attempted=4, failed=0)
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(len(line["metrics"]), len(metrics.catalogue(trace)))
            for entry in line["metrics"].values():
                self.assertEqual(set(entry), {"value", "unit"})

    def test_failures_make_the_result_incorrect(self):
        line = metrics.result_line(self.values(0), 0, attempted=4, failed=1)
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (4, 1))

    def test_missing_or_extra_metrics_are_rejected(self):
        values = self.values(0)
        del values["wall_s"]
        with self.assertRaises(ValueError):
            metrics.result_line(values, 0, 1, 0)
        values = self.values(0)
        values["bogus"] = 1.0
        with self.assertRaises(ValueError):
            metrics.result_line(values, 0, 1, 0)

    def test_non_finite_values_are_rejected(self):
        for bad in (math.inf, math.nan):
            values = self.values(0)
            values["p90_ms"] = bad
            with self.assertRaises(ValueError):
                metrics.result_line(values, 0, 1, 0)


if __name__ == "__main__":
    unittest.main()
