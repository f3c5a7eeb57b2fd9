#!/usr/bin/env python3
"""saga benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload pisa_grid --seconds 25 [--seed 42] [--trace 0|1]

--seconds is required. Give it the run_seconds of BENCHMARK.json, so runs of
two commits measure for equally long.

Run from the root of a saga checkout. The first run configures and builds
saga and perfbench_tool into .bench_build/ (Release); later runs rebuild
incrementally. The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 they are the per-layer ones from the traced run. The line before
it is the stamp (machine, build, seed, and workload notes such as the
repeat share of a serve workload's traffic). Progress and build output go to
stderr. Exits 1 without a result when the build or every measurement fails.
See perfbench/README.md for the workloads and the metric catalogue.
"""

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import batch, build, child, inputs, metrics, serve  # noqa: E402

WORKLOADS = ["pisa_grid", "bench_grid", "serve_http", "serve_distinct", "sim_faults"]
DEFAULT_SEED = 42


class Context:
    """What a workload needs: the build, a fresh work directory, the seed
    and the measuring time. A workload may add facts about its inputs to
    ``notes``; they go into the stamp."""

    def __init__(self, build_tree, work, seed, seconds):
        self.build = build_tree
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.notes = {}

    @staticmethod
    def log(message):
        print("perfbench: %s" % message, file=sys.stderr, flush=True)


def run_workload(ctx, workload, trace):
    if workload in inputs.SERVE_REPEAT_SHARES:
        return serve.traced(ctx, workload) if trace else serve.measure(ctx, workload)
    return batch.traced(ctx, workload) if trace else batch.measure(ctx, workload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # SIGTERM unwinds like ^C, so the daemon and every child get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = build.Build(root)
    try:
        tree.ensure()
    except build.BuildError as e:
        Context.log("build failed: %s" % e)
        return 1

    work = os.path.join(tree.dir, "work", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(tree, work, args.seed, args.seconds)
    try:
        values, checker = run_workload(ctx, args.workload, args.trace)
    except child.ChildError as e:
        Context.log("%s failed: %s" % (args.workload, e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = metrics.result_line(values, args.trace, checker.attempted, checker.failed)

    stamp = build.stamp(tree, args.workload, args.seed, args.trace, args.seconds)
    stamp["digests_pinned"] = checker.pinned
    stamp.update(ctx.notes)
    record = {"stamp": stamp, "result": result}
    results = os.path.join(tree.dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, os.path.basename(work) + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
