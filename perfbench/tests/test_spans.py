"""Span self-time arithmetic (harness/spans.py)."""

import unittest

from harness import spans
from harness.spans import Span


def span(id, parent, start, end, name="s", thread=0, hidden=0):
    return Span(id, parent, 0, name, thread, start, end, hidden)


class CoveredTest(unittest.TestCase):
    def test_empty(self):
        self.assertEqual(spans.covered_ns(0, 10, []), 0)

    def test_disjoint_intervals_add(self):
        self.assertEqual(spans.covered_ns(0, 100, [(10, 20), (50, 70)]), 30)

    def test_overlapping_intervals_count_once(self):
        self.assertEqual(spans.covered_ns(0, 100, [(10, 40), (30, 60), (35, 45)]), 50)

    def test_intervals_are_clipped_to_the_window(self):
        self.assertEqual(spans.covered_ns(10, 20, [(0, 15), (18, 30), (40, 50)]), 7)

    def test_unsorted_input(self):
        self.assertEqual(spans.covered_ns(0, 100, [(60, 80), (0, 10), (5, 20)]), 40)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(spans.self_times([span(1, 0, 5, 25)]), {1: 20})

    def test_sequential_children_are_subtracted(self):
        rows = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 70)]
        self.assertEqual(spans.self_times(rows), {1: 50, 2: 20, 3: 30})

    def test_parallel_children_on_other_threads_count_once(self):
        # A pool span whose cells ran on two threads at the same time.
        rows = [span(1, 0, 0, 100), span(2, 1, 0, 80, thread=1), span(3, 1, 10, 90, thread=2)]
        self.assertEqual(spans.self_times(rows)[1], 10)

    def test_hidden_child_time_is_subtracted(self):
        rows = [span(1, 0, 0, 100, hidden=30), span(2, 1, 50, 60)]
        self.assertEqual(spans.self_times(rows)[1], 60)

    def test_self_time_never_negative(self):
        rows = [span(1, 0, 0, 10, hidden=50)]
        self.assertEqual(spans.self_times(rows)[1], 0)

    def test_grandchildren_only_reduce_their_parent(self):
        rows = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 20)]
        self.assertEqual(spans.self_times(rows), {1: 50, 2: 30, 3: 20})


class AggregateTest(unittest.TestCase):
    def test_by_name_sums_calls_busy_and_self(self):
        rows = [span(1, 0, 0, 100, "cell"), span(2, 1, 0, 40, "anneal", hidden=10),
                span(3, 0, 100, 150, "cell"), span(4, 3, 110, 130, "anneal")]
        layers = spans.by_name(rows)
        self.assertEqual((layers["cell"].calls, layers["cell"].busy_ns, layers["cell"].self_ns),
                         (2, 150, 90))
        self.assertEqual((layers["anneal"].calls, layers["anneal"].busy_ns,
                          layers["anneal"].self_ns), (2, 60, 50))

    def test_unattributed_is_wall_outside_top_level_spans(self):
        rows = [span(1, 0, 1000, 1300), span(2, 1, 1000, 1100), span(3, 0, 1500, 1900)]
        self.assertEqual(spans.unattributed_ns(rows, 1000), 300)

    def test_unattributed_without_spans_is_the_wall(self):
        self.assertEqual(spans.unattributed_ns([], 500), 500)

    def test_parse_reads_report_rows(self):
        (row,) = spans.parse([[7, 3, 2, "exp.cell", 1, 10, 30, 5]])
        self.assertEqual((row.id, row.parent, row.trace, row.name, row.duration_ns, row.hidden_ns),
                         (7, 3, 2, "exp.cell", 20, 5))


if __name__ == "__main__":
    unittest.main()
