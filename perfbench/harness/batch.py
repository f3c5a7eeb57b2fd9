"""Batch workloads: pisa_grid, bench_grid and sim_faults.

Each runs the real `saga` binary on a spec generated from the seed as many
times as fit in the run, timing each command. One more command per run
writes a result store (`--out`), outside the timing: `saga merge` of that
store must reproduce the command's own sinks.

The timed commands write no store. bench_grid's 1975 store files per
command made the command's kernel time swing from 0.1 s to 3.5 s on the
ext4 reference disk, with the same binary and input, so timing the store
write would have measured the file system. The traced run times the store
writes (`exp.store.write.*`) and the cells (`exp.cell.*`).
"""

import glob
import json
import os
import shutil
import time

from . import child, inputs, layers
from .outputs import Checker, tree_digest
from .stats import median, percentile

SPECS = {
    "pisa_grid": (inputs.pisa_grid_spec, "run"),
    "bench_grid": (inputs.bench_grid_spec, "run"),
    "sim_faults": (inputs.sim_faults_spec, "simulate"),
}
SETUP_REPEATS = 31  # dry runs per run at least; setup_s is their median
MIN_SAMPLES = 3     # commands per run, however long they take
MAX_FAILURES = 3    # give up the run after this many failed commands


def settle(trees=()):
    """Deletes ``trees`` and flushes the file system, outside any timing.
    Every command writes to a new directory and the run deletes them only
    after measuring: on ext4, writes made while an earlier command's files
    were still being written back or freed ran several times slower."""
    for tree in trees:
        shutil.rmtree(tree, ignore_errors=True)
    os.sync()


def fresh(path):
    """An empty directory with the sinks' parent directory in it."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, inputs.OUT_DIR))
    return path


def verify_store(ctx, checker, workload, sample):
    """`saga merge` of the sample's store, run in a fresh directory so the
    stored spec's relative sinks land there, must reproduce the sample's
    sinks byte for byte. The Fig. 4 grid's adversarial instances must also
    replay to their recorded ratios (`saga atlas-verify`)."""
    merged = fresh(os.path.join(ctx.work, "merged"))
    try:
        child.run([ctx.build.saga, "merge", os.path.join(sample, inputs.STORE_DIR)], cwd=merged)
        same = tree_digest(os.path.join(merged, inputs.OUT_DIR)) == tree_digest(
            os.path.join(sample, inputs.OUT_DIR))
        checker.check("merged store equals the run's sinks", same)
    except child.ChildError as e:
        checker.check("saga merge", False, str(e))
    if workload == "pisa_grid":
        try:
            child.run([ctx.build.saga, "atlas-verify", os.path.join(inputs.OUT_DIR, "atlas")],
                      cwd=sample)
            checker.check("atlas-verify", True)
        except child.ChildError as e:
            checker.check("atlas-verify", False, str(e))


def prepare(ctx, workload):
    make_spec, command = SPECS[workload]
    spec = os.path.join(ctx.work, "spec.json")
    inputs.write_json(spec, make_spec(ctx.seed))
    return spec, command


def measure(ctx, workload):
    """Untraced run: the end-to-end metrics."""
    spec, command = prepare(ctx, workload)
    checker = Checker(workload, ctx.seed, ctx.log)
    saga = ctx.build.saga

    def dry_run():
        setup.append(child.run([saga, command, spec, "--dry-run"], cwd=ctx.work)[0])

    setup, walls, peaks = [], [], []
    failures = 0
    settle()
    deadline = time.monotonic() + ctx.seconds
    while len(walls) < MIN_SAMPLES or time.monotonic() < deadline:
        # One dry run before each command, so setup_s samples the machine
        # over the whole run rather than in its first tenth of a second.
        dry_run()
        sample = fresh(os.path.join(ctx.work, "sample%d" % (len(walls) + failures)))
        try:
            wall, peak = child.run([saga, command, spec], cwd=sample)
            settle()
        except child.ChildError as e:
            checker.check("command", False, str(e))
            failures += 1
            if failures >= MAX_FAILURES:
                break
            continue
        checker.digest("outputs", tree_digest(os.path.join(sample, inputs.OUT_DIR)))
        walls.append(wall)
        peaks.append(peak)
    if not walls:
        raise child.ChildError("no %s command succeeded" % workload)
    while len(setup) < SETUP_REPEATS:
        dry_run()
    stored = fresh(os.path.join(ctx.work, "stored"))
    child.run([saga, command, spec, "--out", inputs.STORE_DIR], cwd=stored)
    checker.digest("outputs with a store", tree_digest(os.path.join(stored, inputs.OUT_DIR)))
    cells = len(os.listdir(os.path.join(stored, inputs.STORE_DIR, "cells")))
    verify_store(ctx, checker, workload, stored)
    settle(glob.glob(os.path.join(ctx.work, "sample*")) + [stored])
    ctx.log("%s: %d commands, wall %s" % (workload, len(walls),
                                          " ".join("%.3f" % w for w in walls)))
    values = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mib": median(peaks),
        "rps": cells / median(walls),
        "p50_ms": percentile(walls, 50) * 1e3,
        "p90_ms": percentile(walls, 90) * 1e3,
    }
    return values, checker


def traced(ctx, workload):
    """Traced run: the same spec replayed in process by perfbench_tool with
    every layer call timed, alternating with the untraced command. Both must
    give the same outputs."""
    spec, command = prepare(ctx, workload)
    checker = Checker(workload, ctx.seed, ctx.log)
    per_iteration, untraced_walls, traced_walls = [], [], []
    settle()
    deadline = time.monotonic() + ctx.seconds
    while len(traced_walls) < 2 or time.monotonic() < deadline:
        untraced_dir = fresh(os.path.join(ctx.work, "untraced%d" % len(traced_walls)))
        wall, _ = child.run([ctx.build.saga, command, spec, "--out", inputs.STORE_DIR],
                            cwd=untraced_dir)
        untraced_walls.append(wall)
        settle()
        checker.digest("untraced outputs",
                       tree_digest(os.path.join(untraced_dir, inputs.OUT_DIR)))
        traced_dir = fresh(os.path.join(ctx.work, "traced%d" % len(traced_walls)))
        report = os.path.join(traced_dir, "report.json")
        wall, _ = child.run([ctx.build.tool, "traced", spec, report, inputs.STORE_DIR],
                            cwd=traced_dir)
        traced_walls.append(wall)
        settle()
        checker.digest("traced outputs", tree_digest(os.path.join(traced_dir, inputs.OUT_DIR)))
        with open(report, encoding="utf-8") as f:
            per_iteration.append(layers.from_report(json.load(f)))
    verify_store(ctx, checker, workload, traced_dir)
    settle(glob.glob(os.path.join(ctx.work, "*traced*")))
    values = {name: median(it[name] for it in per_iteration) for name in per_iteration[0]}
    values["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)
    return values, checker
