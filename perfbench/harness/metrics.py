"""Metric catalogue and the result line.

Every workload reports every end-to-end metric with tracing off, and every
per-layer metric with tracing on (0 for a layer the workload does not use),
so runs of different workloads and commits line up name by name. The
catalogue here is the single list; BENCHMARK.json, the benchmark's
manifest, repeats it and tests/test_metrics.py keeps the two equal.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The 15 schedulers of the `@benchmark` roster, in registry order.
BENCHMARK_ROSTER = ["BIL", "CPoP", "Duplex", "ETF", "FCP", "FLB", "FastestNode", "GDL",
                    "HEFT", "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA"]

# (name, unit, better, bound)
# Bounds: 0.25, the largest a BENCHMARK.json bound may be, except for
# peak_rss_mib. On the 4-vCPU reference VM two ten-seed sets gave spreads
# (IQR / median) of the other time metrics from 0.014 to 0.229, of setup_s
# up to 0.202 and of peak_rss_mib at most 0.016, most of it from the
# machine's speed changing over minutes; medians of the same code moved by
# up to 1.7x between earlier sets (perfbench/README.md, Noise).
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("rps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("datasets.generate.calls", "count", "lower"),
    ("datasets.generate.busy_s", "s", "lower"),
    ("datasets.generate.tasks", "count", "lower"),
    ("graph.sync.calls", "count", "lower"),
    ("graph.sync.busy_s", "s", "lower"),
    ("sched.plan.calls", "count", "lower"),
    ("sched.plan.busy_s", "s", "lower"),
] + [("sched.plan.%s.busy_s" % name, "s", "lower") for name in BENCHMARK_ROSTER] + [
    ("core.anneal.steps", "count", "lower"),
    ("core.anneal.evaluations", "count", "lower"),
    ("core.anneal.eval_ratio", "ratio", "lower"),
    ("core.anneal.accept_ratio", "ratio", "higher"),
    ("core.anneal.busy_s", "s", "lower"),
    ("core.anneal.self_s", "s", "lower"),
    ("core.anneal.steps_per_s", "1/s", "higher"),
    ("exp.cell.calls", "count", "lower"),
    ("exp.cell.busy_s", "s", "lower"),
    ("exp.cell.p50_ms", "ms", "lower"),
    ("exp.cell.max_ms", "ms", "lower"),
    ("common.pool.utilization", "ratio", "higher"),
    ("exp.store.write.calls", "count", "lower"),
    ("exp.store.write.busy_s", "s", "lower"),
    ("exp.store.write.bytes", "bytes", "lower"),
    ("exp.json.parse.busy_s", "s", "lower"),
    ("analysis.assemble.busy_s", "s", "lower"),
    ("sim.simulate.calls", "count", "lower"),
    ("sim.simulate.busy_s", "s", "lower"),
    ("sim.simulate.self_s", "s", "lower"),
    ("sim.jobs", "count", "higher"),
    ("sim.reexecutions", "count", "lower"),
    ("serve.handle.p50_us", "us", "lower"),
    ("serve.handle.p99_us", "us", "lower"),
    ("serve.codec.decode.busy_s", "s", "lower"),
    ("serve.codec.encode.busy_s", "s", "lower"),
    ("serve.http.overhead_p50_us", "us", "lower"),
    ("serve.http.overhead_p99_us", "us", "lower"),
    ("serve.status.2xx", "count", "higher"),
    ("serve.status.4xx", "count", "lower"),
    ("serve.status.5xx", "count", "lower"),
    ("serve.admission.shed", "count", "lower"),
    ("serve.arena.hit_ratio", "ratio", "higher"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.p99_ms", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def catalogue(trace):
    """(name, unit) of every metric a run with the given trace flag reports."""
    rows = PER_LAYER if trace else END_TO_END
    return [(row[0], row[1]) for row in rows]


def result_line(values, trace, attempted, failed):
    """The benchmark's last stdout line as a dict. ``values`` must hold a
    finite number for every catalogue metric of the mode, and nothing else."""
    names = catalogue(trace)
    expected = {name for name, _ in names}
    missing = expected - set(values)
    extra = set(values) - expected
    if missing or extra:
        raise ValueError("metric set mismatch: missing %s, unexpected %s"
                         % (sorted(missing), sorted(extra)))
    metrics = {}
    for name, unit in names:
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite: %r" % (name, value))
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}
