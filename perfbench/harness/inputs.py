"""Workload inputs, generated from the workload seed alone.

Every function here is pure in its arguments: the same seed gives the same
spec files and request bodies, byte for byte.
"""

import json
import random

from .metrics import BENCHMARK_ROSTER

# The 16 Table II datasets and their natural instance counts, pinned so the
# Fig. 2 grid does not depend on SAGA_SCALE.
TABLE2_DATASETS = [
    ("in_trees", 250), ("out_trees", 250), ("chains", 250), ("blast", 25), ("bwa", 25),
    ("cycles", 25), ("epigenomics", 25), ("genome", 25), ("montage", 25), ("seismology", 25),
    ("soykb", 25), ("srasearch", 25), ("etl", 250), ("predict", 250), ("stats", 250),
    ("train", 250),
]

# PISA restarts per cell: the paper runs 5; 20 makes one Fig. 4 grid take
# about 0.6 s on a 4-core Xeon, so a run times some 40 grids.
PISA_RESTARTS = 20

# Job j is instance j's task graph on instance 0's network, so the network
# size is pinned: with the default 4-12 nodes the seed alone moved the
# command's time by a third.
SIM_DATASET = "blast?min_nodes=8&max_nodes=8"
SIM_ROSTER = ["CPoP", "Duplex", "ETF", "HEFT", "MCT", "MaxMin", "MinMin", "Online?policy=eft"]
SIM_JOBS = 2500
SIM_RATE = 0.0002     # one blast job per 5000 time units: busy, not overloaded
SIM_OUTAGE = 20000.0  # length of each crash window, about ten job makespans

# Result sinks, relative to the directory the command runs in.
OUT_DIR = "out"
STORE_DIR = "store"


def pisa_grid_spec(seed):
    """Fig. 4: PISA on every ordered pair of the @benchmark roster, with the
    paper's annealing defaults and chain initial instances."""
    return {
        "name": "pisa_grid",
        "mode": "pisa-pairwise",
        "schedulers": ["@benchmark"],
        "pisa": {"restarts": PISA_RESTARTS},
        "seed": seed,
        "json": OUT_DIR + "/grid.json",
        "atlas": OUT_DIR + "/atlas",
    }


def bench_grid_spec(seed):
    """Fig. 2: the @benchmark roster on every instance of all 16 Table II
    datasets."""
    return {
        "name": "bench_grid",
        "mode": "benchmark",
        "schedulers": ["@benchmark"],
        "datasets": [{"name": name, "count": count} for name, count in TABLE2_DATASETS],
        "seed": seed,
        "csv": OUT_DIR + "/grid.csv",
        "json": OUT_DIR + "/grid.json",  # every ratio at full precision
    }


def sim_faults_spec(seed):
    """Many Poisson-arriving blast workflow jobs on an 8-node network; two
    nodes crash and recover, one slows down for a tenth of the expected
    horizon, and link jitter changes three times."""
    horizon = SIM_JOBS / SIM_RATE
    return {
        "name": "sim_faults",
        "mode": "simulate",
        "schedulers": SIM_ROSTER,
        "scenario": {
            "dataset": SIM_DATASET,
            "arrivals": {"process": "poisson", "rate": SIM_RATE, "jobs": SIM_JOBS},
            "faults": [
                {"type": "crash", "node": 1, "at": 0.2 * horizon},
                {"type": "recover", "node": 1, "at": 0.2 * horizon + SIM_OUTAGE},
                {"type": "crash", "node": 2, "at": 0.5 * horizon},
                {"type": "recover", "node": 2, "at": 0.5 * horizon + SIM_OUTAGE},
                {"type": "slowdown", "node": 0, "from": 0.6 * horizon, "to": 0.7 * horizon,
                 "factor": 2.0},
            ],
            "jitter": [
                {"at": 0.0, "factor": 1.1},
                {"at": 0.4 * horizon, "factor": 1.5},
                {"at": 0.7 * horizon, "link": [0, 2], "factor": 2.0},
            ],
            "noise_cv": 0.1,
        },
        "seed": seed,
        "json": OUT_DIR + "/sim.json",
    }


# Request mix of the serve workloads: one daemon's whole traffic.
# perfbench_tool loadgen sends every request once, the closed-loop ones
# first, then the open-loop ones at 600 requests/s (src/loadgen.cpp), and
# each round starts a new daemon. So the repeat share of a workload is the
# share of the requests a daemon gets whose body it has already answered:
# serve_http has repeats, so a caching or coalescing change shows its gain,
# and serve_distinct has none, so it shows only the change's cost.
SERVE_REPEAT_SHARES = {"serve_http": 0.2, "serve_distinct": 0.0}
SERVE_CLOSED_REQUESTS = 3000
SERVE_OPEN_REQUESTS = 900
SERVE_REQUESTS = SERVE_CLOSED_REQUESTS + SERVE_OPEN_REQUESTS
SERVE_DATASETS = [name for name, _ in TABLE2_DATASETS]
COMPARE_MIN = 8           # compare rosters stream as chunks from 8 schedulers


def inline_instance(rng, tasks, nodes):
    """A random wire-codec instance (serve/codec.hpp schema): ``tasks`` tasks
    in a random DAG on a complete network of ``nodes`` nodes."""
    deps = [{"from": a, "to": b, "size": round(rng.uniform(0.1, 10.0), 3)}
            for a in range(tasks) for b in range(a + 1, tasks) if rng.random() < 0.15]
    return {
        "format": "saga-instance",
        "version": 1,
        "tasks": [{"name": "t%d" % i, "cost": round(rng.uniform(0.1, 10.0), 3)}
                  for i in range(tasks)],
        "deps": deps,
        "nodes": [{"speed": round(rng.uniform(0.5, 2.0), 3)} for _ in range(nodes)],
        "links": [{"a": a, "b": b, "strength": round(rng.uniform(0.5, 2.0), 3)}
                  for a in range(nodes) for b in range(a + 1, nodes)],
    }


def serve_bodies(seed, repeat_share):
    """A serve workload's traffic as (closed-loop, open-loop) lists of
    (path, body) pairs, SERVE_REQUESTS in all. Its distinct bodies are half
    /v1/schedule on a dataset ref, a quarter /v1/schedule on an inline
    instance, a quarter /v1/compare with 8-15 schedulers; ``repeat_share``
    of the requests re-send some of them byte for byte.

    The mix is stratified so every seed, and each phase, asks for the same
    amount of work: datasets, schedulers, roster sizes and inline instance
    sizes cycle through fixed lists, the phases take every kind and every
    turn of those cycles in proportion, and so do the repeats. The seed
    picks instance indices, weights, the request seeds (all different, so
    the bodies are), which bodies repeat, and the order within a phase."""
    rng = random.Random(seed)
    count = round(SERVE_REQUESTS * (1 - repeat_share))
    request_seeds = rng.sample(range(1 << 32), count)
    closed, opened = [], []
    for i in range(count):
        kind, turn = i % 4, i // 4
        body = {}
        if kind == 3:
            size = COMPARE_MIN + turn % (len(BENCHMARK_ROSTER) - COMPARE_MIN + 1)
            body["schedulers"] = rng.sample(BENCHMARK_ROSTER, size)
        else:
            body["scheduler"] = BENCHMARK_ROSTER[(turn + kind) % len(BENCHMARK_ROSTER)]
        if kind == 2 or (kind == 3 and turn % 2):
            body["instance"] = inline_instance(rng, 8 + turn % 17, 3 + turn % 4)
        else:
            body["dataset"] = SERVE_DATASETS[(turn + kind) % len(SERVE_DATASETS)]
            body["index"] = rng.randrange(25)
        body["seed"] = request_seeds[i]
        path = "/v1/compare" if kind == 3 else "/v1/schedule"
        # Turns go to the open loop evenly spread, in its share of requests.
        open_loop = turn * SERVE_OPEN_REQUESTS % SERVE_REQUESTS < SERVE_OPEN_REQUESTS
        (opened if open_loop else closed).append(
            (path, json.dumps(body, separators=(",", ":"), sort_keys=True)))
    # Repeats, a quarter of each kind: the closed loop's re-send closed-loop
    # bodies and the open loop's any other body, so each phase has the
    # stated share of requests whose body the daemon has seen before.
    distinct = closed + opened
    closed_repeats, open_repeats = [], []
    for kind in range(4):
        same = distinct[kind::4]  # its closed-loop bodies first
        picks = rng.sample(range(len(closed) // 4), (SERVE_CLOSED_REQUESTS - len(closed)) // 4)
        rest = sorted(set(range(len(same))) - set(picks))
        closed_repeats += [same[j] for j in picks]
        open_repeats += [same[j] for j in
                         rng.sample(rest, (SERVE_OPEN_REQUESTS - len(opened)) // 4)]
    closed += closed_repeats
    opened += open_repeats
    if (len(closed), len(opened)) != (SERVE_CLOSED_REQUESTS, SERVE_OPEN_REQUESTS):
        raise ValueError("serve phases of %d and %d requests" % (len(closed), len(opened)))
    rng.shuffle(closed)
    rng.shuffle(opened)
    return closed, opened


def repeat_share(bodies, sent):
    """Share of the requests ``sent`` (indices into ``bodies``, in any
    order) whose body an earlier-sent request of the list already carried:
    with every index sent once, in list order, what one daemon sees."""
    seen = set()
    repeats = 0
    for index in sorted(sent):
        repeats += bodies[index] in seen
        seen.add(bodies[index])
    return repeats / len(sent)


def write_json(path, document):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")


def write_bodies(path, closed, opened):
    """The bodies file of perfbench_tool: `<closed|open>\t<path>\t<body>`
    per request."""
    with open(path, "w", encoding="utf-8") as f:
        for phase, requests in (("closed", closed), ("open", opened)):
            for target, body in requests:
                f.write("%s\t%s\t%s\n" % (phase, target, body))
