"""Span arithmetic for the traced run.

perfbench_tool writes spans as
``[id, parent, trace, name, thread, start_ns, end_ns, hidden_ns]``, where
``hidden_ns`` is time of aggregated child calls (scheduler plans, view syncs)
that were counted instead of kept as spans. A span's self time is its
duration minus the part of it its child spans cover (the union of their
intervals, clipped to the span, so overlapping children running on other
threads are not counted twice) minus ``hidden_ns``.
"""

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    trace: int
    name: str
    thread: int
    start_ns: int
    end_ns: int
    hidden_ns: int = 0

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


def parse(rows):
    """Spans from the report's ``spans`` rows."""
    return [Span(*row) for row in rows]


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans):
    """Self time in ns of every span, keyed by span id."""
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = {}
    for span in spans:
        covered = covered_ns(span.start_ns, span.end_ns, children.get(span.id, ()))
        out[span.id] = max(0, span.duration_ns - covered - span.hidden_ns)
    return out


@dataclass
class Layer:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0


def by_name(spans):
    """Calls, busy time (summed durations) and self time per span name."""
    selfs = self_times(spans)
    layers = defaultdict(Layer)
    for span in spans:
        layer = layers[span.name]
        layer.calls += 1
        layer.busy_ns += span.duration_ns
        layer.self_ns += selfs[span.id]
    return dict(layers)


def unattributed_ns(spans, wall_ns):
    """Traced wall time not inside any top-level (parentless) span."""
    roots = [(s.start_ns, s.end_ns) for s in spans if not s.parent]
    if not roots:
        return wall_ns
    start = min(s for s, _ in roots)
    return max(0, wall_ns - covered_ns(start, start + wall_ns, roots))
