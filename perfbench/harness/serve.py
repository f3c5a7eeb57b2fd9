"""serve_http and serve_distinct: the `saga serve` daemon on loopback,
driven by perfbench_tool loadgen with distinct request bodies, of which
serve_http repeats some.

The daemon runs with its default flags (no admission limits, no batching)
apart from --threads: daemon threads plus client connections equal nproc.
Each round starts a new daemon and sends it the whole body list once (see
inputs.serve_bodies): a closed-loop phase on keep-alive connections, then
an open-loop phase at a fixed rate, timed from each request's due time. So
every daemon sees the stated repeat share, however many rounds a run has.
Every response body must equal what ScheduleService::handle returns in
process for the same request body.
"""

import contextlib
import http.client
import json
import os
import subprocess
import sys
import time

from . import child, inputs, layers, prom, spans
from .outputs import Checker, lines_digest
from .stats import median, percentile

SETUP_STARTS = 31  # daemon starts per run at least; setup_s is their median
MIN_ROUNDS = 2
READY_TIMEOUT_S = 30.0

# Spins on one CPU at idle priority until killed or its parent is gone.
POLLER = """\
import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


def split_cpus():
    """(daemon threads, client connections), summing to nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // 2)
    return threads, max(1, nproc - threads)


@contextlib.contextmanager
def polling():
    """Keeps every CPU busy while the block runs, with one poller process
    per CPU that any runnable thread preempts at once (SCHED_IDLE), as the
    kernel's idle=poll would. On a virtual machine an idle CPU halts, and
    waking it for a request costs the host's scheduling delay, which changes
    with the host's other load: on the 4-vCPU reference VM the open-loop p90
    of twelve serve_http rounds ranged from 0.66 to 1.87 ms with halting
    CPUs and from 0.56 to 0.66 ms with polling ones. Stops and reaps the
    pollers on every way out."""
    pollers = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            pollers.append(subprocess.Popen([sys.executable, "-c", POLLER, str(cpu)]))
        yield
    finally:
        for poller in pollers:
            poller.kill()
        for poller in pollers:
            poller.wait()


class Daemon:
    """One `saga serve` child, ready once its port file exists and /healthz
    answers 200."""

    def __init__(self, ctx, threads):
        self.port_file = os.path.join(ctx.work, "port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(ctx.work, "serve.log"), "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.build.saga, "serve", "--port", "0", "--port-file", self.port_file,
             "--threads", str(threads)],
            cwd=ctx.work, stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.start
        self.wall_s = None

    def _wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise child.ChildError("saga serve exited %d at start" % self.proc.returncode)
            if port is None:
                try:
                    with open(self.port_file, encoding="utf-8") as f:
                        text = f.read()
                    if text.endswith("\n"):
                        port = int(text)
                except FileNotFoundError:
                    pass
            if port is not None and healthy(port):
                return port
            time.sleep(0.0002)
        raise child.ChildError("saga serve not ready after %.0fs" % READY_TIMEOUT_S)

    def stop(self):
        """SIGTERM, reap; returns the daemon's peak RSS in MiB and sets
        wall_s, its time from exec to exit."""
        try:
            if self.proc.poll() is None:
                self.proc.terminate()
                return child.wait(self.proc, 10.0)[1]
            return 0.0
        finally:
            self.wall_s = time.perf_counter() - self.start
            self.log.close()


def healthy(port):
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        finally:
            conn.close()
    except OSError:
        return False


class Traffic:
    """The body list of one daemon, written for perfbench_tool, with the
    in-process reference response ('<status> <digest>') of every body."""

    def __init__(self, ctx, workload):
        closed, opened = inputs.serve_bodies(ctx.seed, inputs.SERVE_REPEAT_SHARES[workload])
        self.requests = closed + opened  # in bodies-file order
        self.path = os.path.join(ctx.work, "bodies.tsv")
        inputs.write_bodies(self.path, closed, opened)
        expected = os.path.join(ctx.work, "expected.txt")
        child.run([ctx.build.tool, "handle", self.path, expected], cwd=ctx.work)
        with open(expected, encoding="utf-8") as f:
            self.expected = f.read().splitlines()


def serve_round(ctx, traffic, threads, connections, round_id):
    """Starts a daemon, sends it the whole body list once and stops it.
    Returns (daemon, loadgen result, peak RSS in MiB)."""
    out = os.path.join(ctx.work, "load%d.json" % round_id)
    daemon = Daemon(ctx, threads)
    try:
        child.run([ctx.build.tool, "loadgen", "--port", str(daemon.port),
                   "--bodies", traffic.path, "--connections", str(connections),
                   "--out", out], cwd=ctx.work, timeout=120.0)
    finally:
        peak = daemon.stop()
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    with open(out + ".before.prom", encoding="utf-8") as f:
        before = prom.parse(f.read())
    with open(out + ".after.prom", encoding="utf-8") as f:
        after = prom.parse(f.read())
    result["metrics_diff"] = prom.diff(before, after)
    sent = [s[0] for s in result["closed"]["samples"] + result["open"]["samples"]]
    ctx.notes["serve_repeat_share"] = inputs.repeat_share(traffic.requests, sent)
    ctx.notes["serve_requests_per_daemon"] = len(sent)
    return daemon, result, peak


def answered(sample, expected):
    """A sample [body, status, latency_ns, late_ns, server_us, digest] is
    answered when it is a 2xx whose body equals the in-process response."""
    body, status, _, _, _, digest = sample
    return 200 <= status < 300 and "%d %s" % (status, digest) == expected[body]


def check_samples(checker, samples, expected):
    for sample in samples:
        checker.check("response to body %d" % sample[0], answered(sample, expected),
                      "status %d" % sample[1])


def open_latencies_ms(phase, expected):
    """Open-loop latency of every request from its due time; a failed or
    wrong request counts as missing any limit (the phase's whole length)."""
    worst = phase["elapsed_ns"]
    return [(s[2] if answered(s, expected) else max(s[2], worst)) * 1e-6
            for s in phase["samples"]]


def measure(ctx, workload):
    """Untraced run: the end-to-end metrics."""
    threads, connections = split_cpus()
    traffic = Traffic(ctx, workload)
    expected = traffic.expected
    checker = Checker(workload, ctx.seed, ctx.log)
    checker.digest("in-process responses", lines_digest(expected))

    ready, walls, peaks, rates, p50s, p90s, round_s = [], [], [], [], [], [], []
    with polling():
        deadline = time.monotonic() + ctx.seconds
        # Another round only if it should end before the deadline.
        while len(round_s) < MIN_ROUNDS or time.monotonic() + median(round_s) <= deadline:
            start = time.monotonic()
            daemon, result, peak = serve_round(ctx, traffic, threads, connections, len(round_s))
            round_s.append(time.monotonic() - start)
            closed, opened = result["closed"], result["open"]
            check_samples(checker, closed["samples"], expected)
            check_samples(checker, opened["samples"], expected)
            ready.append(daemon.ready_s)
            walls.append(daemon.wall_s)
            peaks.append(peak)
            rates.append(len(closed["samples"]) / (closed["elapsed_ns"] * 1e-9))
            # Percentiles per round, then the median over rounds: a round caught
            # in a host stall moves one sample instead of the pooled tail.
            latencies = open_latencies_ms(opened, expected)
            p50s.append(percentile(latencies, 50))
            p90s.append(percentile(latencies, 90))
        while len(ready) < SETUP_STARTS:
            daemon = Daemon(ctx, threads)
            ready.append(daemon.ready_s)
            daemon.stop()
    ctx.log("%s: %d rounds, rps %s, p90_ms %s" % (
        workload, len(rates), " ".join("%.0f" % r for r in rates),
        " ".join("%.3f" % p for p in p90s)))
    values = {
        "wall_s": median(walls),
        "setup_s": median(ready),
        "peak_rss_mib": median(peaks),
        "rps": median(rates),
        "p50_ms": median(p50s),
        "p90_ms": median(p90s),
    }
    return values, checker


def traced(ctx, workload):
    """Traced run: in-process handle() and stage replay of the same bodies,
    alternating with the untraced in-process pass, then one round against a
    daemon for the HTTP overhead and the /metrics difference."""
    threads, connections = split_cpus()
    traffic = Traffic(ctx, workload)
    expected = traffic.expected
    checker = Checker(workload, ctx.seed, ctx.log)
    checker.digest("in-process responses", lines_digest(expected))

    per_iteration, untraced_walls, traced_walls = [], [], []
    untraced_out = os.path.join(ctx.work, "untraced.txt")
    traced_out = os.path.join(ctx.work, "traced.txt")
    report = os.path.join(ctx.work, "report.json")
    deadline = time.monotonic() + ctx.seconds / 2
    while len(traced_walls) < 2 or time.monotonic() < deadline:
        wall, _ = child.run([ctx.build.tool, "handle", traffic.path, untraced_out], cwd=ctx.work)
        untraced_walls.append(wall)
        wall, _ = child.run([ctx.build.tool, "handle", traffic.path, traced_out,
                             "--report", report], cwd=ctx.work)
        for path in (untraced_out, traced_out):
            with open(path, encoding="utf-8") as f:
                checker.digest("in-process responses", lines_digest(f.read().splitlines()))
        with open(report, encoding="utf-8") as f:
            document = json.load(f)
        per_iteration.append(layers.from_report(document))
        # The stage-by-stage replay has no untraced counterpart: leave it out.
        replay = spans.by_name(spans.parse(document["spans"]))["serve.request"]
        traced_walls.append(wall - replay.busy_ns * 1e-9)
    values = {name: median(it[name] for it in per_iteration) for name in per_iteration[0]}
    values["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)

    with polling():
        _, result, _ = serve_round(ctx, traffic, threads, connections, 0)
    closed, opened = result["closed"], result["open"]
    check_samples(checker, closed["samples"], expected)
    check_samples(checker, opened["samples"], expected)
    # Buffered /v1/schedule responses only: a streamed /v1/compare sends its
    # timing header before the rows are computed.
    paths = [path for path, _ in traffic.requests]
    overhead_us = [latency * 1e-3 - float(server) for body, status, latency, _, server, _
                   in closed["samples"] if server and paths[body] == "/v1/schedule"]
    values["serve.http.overhead_p50_us"] = percentile(overhead_us, 50)
    values["serve.http.overhead_p99_us"] = percentile(overhead_us, 99)
    diff = result["metrics_diff"]
    for status in ("2xx", "4xx", "5xx"):
        values["serve.status.%s" % status] = sum(
            prom.total(diff, "saga_requests_total", endpoint=endpoint, status=status)
            for endpoint in ("schedule", "compare"))
    values["serve.admission.shed"] = prom.total(diff, "saga_admission_shed_total")
    hits = prom.total(diff, "saga_arena_reuse_total", kind="hit")
    misses = prom.total(diff, "saga_arena_reuse_total", kind="miss")
    values["serve.arena.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["loadgen.sent"] = len(closed["samples"]) + len(opened["samples"])
    values["loadgen.p99_ms"] = percentile(open_latencies_ms(opened, expected), 99)
    values["loadgen.late_p99_ms"] = percentile([s[3] for s in opened["samples"]], 99) * 1e-6
    return values, checker
