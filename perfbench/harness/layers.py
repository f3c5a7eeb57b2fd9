"""Per-layer metrics from one perfbench_tool span report."""

from . import spans
from .metrics import BENCHMARK_ROSTER, PER_LAYER
from .stats import percentile, ratio

NS = 1e-9


def from_report(report):
    """Every per-layer metric the report can give; the rest are 0. The serve
    and trace metrics that need the daemon or both runs are filled in by
    the workload."""
    rows = spans.parse(report["spans"])
    layers = spans.by_name(rows)
    counters = report["counters"]
    values = {name: 0.0 for name, _, _ in PER_LAYER}

    def layer(name):
        return layers.get(name, spans.Layer())

    def counter(name, field="value"):
        return counters.get(name, {}).get(field, 0)

    generate = layer("datasets.generate")
    values["datasets.generate.calls"] = generate.calls
    values["datasets.generate.busy_s"] = generate.busy_ns * NS
    values["datasets.generate.tasks"] = counter("datasets.tasks")

    values["graph.sync.calls"] = counter("graph.sync", "calls")
    values["graph.sync.busy_s"] = counter("graph.sync", "ns") * NS

    plans = {name[len("sched.plan."):]: c for name, c in counters.items()
             if name.startswith("sched.plan.")}
    values["sched.plan.calls"] = sum(c["calls"] for c in plans.values())
    values["sched.plan.busy_s"] = sum(c["ns"] for c in plans.values()) * NS
    for name in BENCHMARK_ROSTER:
        values["sched.plan.%s.busy_s" % name] = plans.get(name, {}).get("ns", 0) * NS

    anneal = layer("core.anneal")
    steps = counter("core.anneal.steps")
    values["core.anneal.steps"] = steps
    values["core.anneal.evaluations"] = counter("core.anneal.evaluations")
    # evaluations / (steps + 1) per annealing run, pooled over the runs.
    values["core.anneal.eval_ratio"] = ratio(counter("core.anneal.evaluations"),
                                             steps + counter("core.anneal.runs"))
    values["core.anneal.accept_ratio"] = ratio(counter("core.anneal.accepted"), steps)
    values["core.anneal.busy_s"] = anneal.busy_ns * NS
    values["core.anneal.self_s"] = anneal.self_ns * NS
    values["core.anneal.steps_per_s"] = ratio(steps, anneal.busy_ns * NS)

    cells = [s for s in rows if s.name == "exp.cell"]
    cell = layer("exp.cell")
    values["exp.cell.calls"] = cell.calls
    values["exp.cell.busy_s"] = cell.busy_ns * NS
    values["exp.cell.p50_ms"] = percentile([s.duration_ns for s in cells], 50) * 1e-6
    values["exp.cell.max_ms"] = max((s.duration_ns for s in cells), default=0) * 1e-6
    lanes = max(report["threads"], len({s.thread for s in cells}))
    values["common.pool.utilization"] = ratio(cell.busy_ns, layer("exp.cells").busy_ns * lanes)

    write = layer("exp.store.write")
    values["exp.store.write.calls"] = write.calls
    values["exp.store.write.busy_s"] = write.busy_ns * NS
    values["exp.store.write.bytes"] = counter("exp.store.write.bytes")
    values["exp.json.parse.busy_s"] = layer("exp.json.parse").busy_ns * NS
    values["analysis.assemble.busy_s"] = layer("analysis.assemble").busy_ns * NS

    simulate = layer("sim.simulate")
    values["sim.simulate.calls"] = simulate.calls
    values["sim.simulate.busy_s"] = simulate.busy_ns * NS
    values["sim.simulate.self_s"] = simulate.self_ns * NS
    values["sim.jobs"] = counter("sim.jobs")
    values["sim.reexecutions"] = counter("sim.reexecutions")

    handles = [s.duration_ns for s in rows if s.name == "serve.handle"]
    values["serve.handle.p50_us"] = percentile(handles, 50) * 1e-3
    values["serve.handle.p99_us"] = percentile(handles, 99) * 1e-3
    values["serve.codec.decode.busy_s"] = layer("serve.codec.decode").busy_ns * NS
    values["serve.codec.encode.busy_s"] = layer("serve.codec.encode").busy_ns * NS

    values["trace.unattributed_s"] = spans.unattributed_ns(rows, report["wall_ns"]) * NS
    return values
