#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "graph/problem_instance.hpp"
#include "sched/scheduler.hpp"
#include "sim/events.hpp"
#include "sim/scenario.hpp"

/// \file simulator.hpp
/// The discrete-event scheduling simulator: DAG jobs arrive over time, the
/// scheduler under test plans each one on the pristine shared network the
/// moment it arrives (the plan-then-execute protocol of
/// stochastic::reexecute / Canon et al. 2008), and the event loop replays
/// the plans under churn — node crashes that destroy in-flight work (full
/// re-execution after recovery, placements held), multiplicative slowdown
/// windows repricing the running task's remaining work, and per-link
/// communication jitter sampled when each transfer starts.
///
/// Replay semantics: placements are irrevocable; each node dispatches its
/// tasks in planned order (start, then finish, then task id — jobs
/// interleave in arrival order) as soon as the node is alive, idle, and the
/// task's inputs have all arrived. For a builder-produced plan with no
/// faults this eager replay reproduces the planned start times — and the
/// static TimelineBuilder makespan — exactly (pinned by tests/test_sim_faults).
///
/// Everything is deterministic in (scenario, seed): the event queue breaks
/// timestamp ties in push order, the workload derives from the experiment
/// seed alone (so a roster builds it once and every scheduler replays the
/// same jobs), and the trace hash fingerprints the full event order. The
/// trace is digested as it is produced; its events are kept only when the
/// caller asks for them.

namespace saga {
class ThreadPool;
class TimelineArena;
}

namespace saga::sim {

/// One dynamically-arriving job: a task graph revealed at `arrival`.
/// Arrival times must be non-decreasing across a job list.
struct SimJob {
  double arrival = 0.0;
  TaskGraph graph;
};

/// Per-scheduler outcome of one simulation run.
struct SimReport {
  std::size_t jobs = 0;             // jobs that arrived
  std::size_t completed_jobs = 0;   // jobs whose every task finished
  std::size_t tasks_completed = 0;  // task completions (re-runs count once)
  std::size_t reexecutions = 0;     // task attempts destroyed by crashes
  double makespan = 0.0;            // time of the last task completion
  Summary response;                 // completed jobs: finish - arrival
  Summary degradation;              // completed jobs: span / planned makespan
  std::vector<double> utilization;  // per node: occupied time / makespan
  std::uint64_t trace_hash = 0;     // fnv1a64 of trace_to_string(trace)
  std::size_t trace_events = 0;
};

/// The jobs a scenario streams onto its shared network.
struct Workload {
  Network network{1};
  std::vector<SimJob> jobs;
};

/// Renders an event trace deterministically, one line per event (internal
/// kTaskReady events are never traced). The rendering — and therefore the
/// trace hash — is byte-stable across platforms for identical inputs.
[[nodiscard]] std::string trace_to_string(const std::vector<Event>& trace);

/// Core entry point: replays `jobs` on `network` under the given fault and
/// jitter scripts. `scheduler` plans each job at its arrival instant.
/// Throws std::invalid_argument on malformed scripts, out-of-range node
/// indices, or decreasing arrival times; validation runs before the first
/// event, so a rejected call leaves `trace` untouched. When `trace` is
/// non-null each traced event is appended to it as it happens (existing
/// contents are kept); otherwise the events are only digested into
/// SimReport::trace_hash.
[[nodiscard]] SimReport simulate_jobs(const Network& network, const std::vector<SimJob>& jobs,
                                      const Scheduler& scheduler,
                                      const std::vector<FaultEvent>& faults,
                                      const std::vector<JitterEvent>& jitter,
                                      TimelineArena* arena = nullptr,
                                      std::vector<Event>* trace = nullptr);

/// The arrival times a scenario produces for master seed `seed` — shared by
/// every scheduler in a roster, so all cells of a simulate-mode experiment
/// face the identical workload.
[[nodiscard]] std::vector<double> arrival_times(const Scenario& scenario, std::uint64_t seed);

/// Validates the scenario and builds its workload: the network is the
/// dataset's instance 0 network; job j arrives at arrival_times()[j] with
/// instance j's graph, optionally re-drawn with relative noise from a
/// seed-derived stream. Each job is a pure function of (scenario, seed, j),
/// so with a `pool` the jobs are built across its threads, and the result
/// is the same for any thread count.
[[nodiscard]] Workload make_workload(const Scenario& scenario, std::uint64_t seed,
                                     ThreadPool* pool = nullptr);

/// Declarative entry point for one scheduler: make_workload, then
/// simulate_jobs under the scenario's fault and jitter scripts. A roster
/// replaying one scenario should build the workload once and call
/// simulate_jobs per scheduler, as simulate-mode experiments do.
[[nodiscard]] SimReport simulate_scenario(const Scenario& scenario, const Scheduler& scheduler,
                                          std::uint64_t seed, TimelineArena* arena = nullptr,
                                          std::vector<Event>* trace = nullptr);

}  // namespace saga::sim
