"""/metrics exposition parsing and differences (harness/prom.py)."""

import unittest

from harness import prom

BEFORE = """# HELP saga_requests_total Requests handled, by endpoint and status class.
# TYPE saga_requests_total counter
saga_requests_total 3
saga_requests_total{endpoint="schedule",status="2xx"} 2
saga_requests_total{endpoint="metrics",status="2xx"} 1
saga_arena_reuse_total{kind="hit"} 1
saga_arena_reuse_total{kind="miss"} 1
saga_request_latency_us_bucket{le="+Inf"} 3
saga_uptime_seconds 1.500
"""

AFTER = """saga_requests_total 10
saga_requests_total{endpoint="schedule",status="2xx"} 6
saga_requests_total{endpoint="compare",status="2xx"} 2
saga_requests_total{endpoint="schedule",status="4xx"} 1
saga_requests_total{endpoint="metrics",status="2xx"} 1
saga_arena_reuse_total{kind="hit"} 8
saga_arena_reuse_total{kind="miss"} 2
saga_admission_shed_total 0
saga_uptime_seconds 4.25
"""


class ParseTest(unittest.TestCase):
    def test_samples_with_and_without_labels(self):
        samples = prom.parse(BEFORE)
        self.assertEqual(samples[("saga_requests_total", ())], 3.0)
        key = ("saga_requests_total", (("endpoint", "schedule"), ("status", "2xx")))
        self.assertEqual(samples[key], 2.0)
        self.assertEqual(samples[("saga_request_latency_us_bucket", (("le", "+Inf"),))], 3.0)

    def test_comments_and_blank_lines_are_skipped(self):
        self.assertEqual(prom.parse("# HELP x y\n\n# TYPE x counter\nx 1\n"), {("x", ()): 1.0})

    def test_label_order_does_not_matter(self):
        a = prom.parse('m{a="1",b="2"} 5')
        b = prom.parse('m{b="2",a="1"} 5')
        self.assertEqual(a, b)

    def test_commas_inside_label_values(self):
        samples = prom.parse('m{path="a,b",x="y"} 1')
        self.assertEqual(samples, {("m", (("path", "a,b"), ("x", "y"))): 1.0})

    def test_malformed_lines_raise(self):
        for text in ["novalue", 'm{a="1" 2', "m{a=1} 2", "m notanumber"]:
            with self.assertRaises(ValueError, msg=text):
                prom.parse(text)


class DiffTest(unittest.TestCase):
    def setUp(self):
        self.diff = prom.diff(prom.parse(BEFORE), prom.parse(AFTER))

    def test_counter_differences(self):
        self.assertEqual(prom.total(self.diff, "saga_requests_total", status="2xx",
                                    endpoint="schedule"), 4.0)
        self.assertEqual(prom.total(self.diff, "saga_requests_total", endpoint="compare"), 2.0)

    def test_sample_new_after_counts_from_zero(self):
        self.assertEqual(prom.total(self.diff, "saga_requests_total", status="4xx"), 1.0)
        self.assertEqual(prom.total(self.diff, "saga_admission_shed_total"), 0.0)

    def test_total_sums_over_unfiltered_labels(self):
        self.assertEqual(prom.total(self.diff, "saga_arena_reuse_total"), 8.0)
        self.assertEqual(prom.total(self.diff, "saga_arena_reuse_total", kind="hit"), 7.0)

    def test_absent_metric_totals_zero(self):
        self.assertEqual(prom.total(self.diff, "saga_batch_requests_total"), 0.0)


if __name__ == "__main__":
    unittest.main()
