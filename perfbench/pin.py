#!/usr/bin/env python3
"""Recomputes the output digests pinned in perfbench/digests.json.

    python3 perfbench/pin.py [--seeds 42,1000003] [--workload NAME ...]

Runs each workload's command twice per seed (the two digests must agree)
and writes the digest. Pins change only when a change alters outputs on
purpose; say so in that change.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from harness import batch, build, child, inputs, outputs, serve  # noqa: E402

PINNED_SEEDS = [run.DEFAULT_SEED, 1000003]


def output_digest(ctx, workload):
    if workload in inputs.SERVE_REPEAT_SHARES:
        return outputs.lines_digest(serve.Traffic(ctx, workload).expected)
    spec, command = batch.prepare(ctx, workload)
    sample = batch.fresh(os.path.join(ctx.work, "sample"))
    child.run([ctx.build.saga, command, spec, "--out", inputs.STORE_DIR], cwd=sample)
    return outputs.tree_digest(os.path.join(sample, inputs.OUT_DIR))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default=",".join(map(str, PINNED_SEEDS)))
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = build.Build(root)
    tree.ensure()
    with open(outputs.PINNED_PATH, encoding="utf-8") as f:
        pinned = json.load(f)
    for workload in args.workload or run.WORKLOADS:
        for seed in seeds:
            work = os.path.join(tree.dir, "work", "pin-%s-%d" % (workload, seed))
            digests = []
            for _ in range(2):
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                digests.append(output_digest(run.Context(tree, work, seed, 0), workload))
            shutil.rmtree(work, ignore_errors=True)
            if digests[0] != digests[1]:
                sys.exit("%s seed %d is not deterministic: %s" % (workload, seed, digests))
            pinned.setdefault(workload, {})[str(seed)] = digests[0]
            print("%s seed %d: %s" % (workload, seed, digests[0]))
    with open(outputs.PINNED_PATH, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
