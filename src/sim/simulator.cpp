#include "sim/simulator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "datasets/registry.hpp"
#include "sched/arena.hpp"
#include "stochastic/stochastic_instance.hpp"

namespace saga::sim {

namespace {

/// %.17g (which to_chars at general precision 17 is defined to produce):
/// round-trip exact and byte-stable across platforms for the same double,
/// so traces (and their hashes) are portable.
void append_double(std::string& out, double value) {
  char buffer[32];
  const auto end =
      std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::general, 17).ptr;
  out.append(buffer, end);
}

void append_integer(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  out.append(buffer, end);
}

/// Appends one trace line: the unit both trace_to_string and the running
/// trace hash are built from.
void append_event(std::string& out, const Event& e) {
  out += to_string(e.type);
  out += " t=";
  append_double(out, e.time);
  switch (e.type) {
    case EventType::kJobArrival:
      out += " job=";
      append_integer(out, e.job);
      break;
    case EventType::kTaskStart:
    case EventType::kTaskFinish:
    case EventType::kTaskLost:
      out += " job=";
      append_integer(out, e.job);
      out += " task=";
      append_integer(out, e.task);
      out += " node=";
      append_integer(out, e.node);
      break;
    case EventType::kNodeCrash:
    case EventType::kNodeRecover:
    case EventType::kSlowdownEnd:
      out += " node=";
      append_integer(out, e.node);
      break;
    case EventType::kSlowdownBegin:
      out += " node=";
      append_integer(out, e.node);
      out += " factor=";
      append_double(out, e.factor);
      break;
    case EventType::kJitterChange:
      if (e.has_link) {
        out += " link=";
        append_integer(out, std::min(e.node, e.peer));
        out += '-';
        append_integer(out, std::max(e.node, e.peer));
      }
      out += " factor=";
      append_double(out, e.factor);
      break;
    case EventType::kTaskReady:
      out += " job=";
      append_integer(out, e.job);
      out += " task=";
      append_integer(out, e.task);
      break;
  }
  out += '\n';
}

/// One run of the event loop. Single-threaded by construction: a simulation
/// is one experiment cell, and cells parallelize across the worker pool.
class Simulation {
 public:
  Simulation(const Network& network, const std::vector<SimJob>& jobs,
             const Scheduler& scheduler, const std::vector<FaultEvent>& faults,
             const std::vector<JitterEvent>& jitter, TimelineArena* arena,
             std::vector<Event>* trace)
      : network_(network), jobs_(jobs), scheduler_(scheduler), faults_(faults),
        jitter_script_(jitter), arena_(arena), trace_(trace) {}

  SimReport run() {
    validate_inputs();
    nodes_.assign(network_.node_count(), NodeState{});
    states_.resize(jobs_.size());

    // Environment scripts enter the queue before arrivals, so at equal
    // timestamps a scripted change applies before the work it affects; the
    // queue's (time, seq) order makes every such tie deterministic.
    for (const JitterEvent& event : jitter_script_) {
      Event e;
      e.time = event.at;
      e.type = EventType::kJitterChange;
      e.has_link = event.has_link;
      e.node = static_cast<std::uint32_t>(event.a);
      e.peer = static_cast<std::uint32_t>(event.b);
      e.factor = event.factor;
      queue_.push(e);
    }
    for (const FaultEvent& fault : faults_) {
      Event e;
      e.node = static_cast<std::uint32_t>(fault.node);
      switch (fault.kind) {
        case FaultEvent::Kind::kCrash:
          e.time = fault.at;
          e.type = EventType::kNodeCrash;
          queue_.push(e);
          break;
        case FaultEvent::Kind::kRecover:
          e.time = fault.at;
          e.type = EventType::kNodeRecover;
          queue_.push(e);
          break;
        case FaultEvent::Kind::kSlowdown:
          e.time = fault.at;
          e.type = EventType::kSlowdownBegin;
          e.factor = fault.factor;
          queue_.push(e);
          e.time = fault.until;
          e.type = EventType::kSlowdownEnd;
          e.factor = 1.0;
          queue_.push(e);
          break;
      }
    }
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      Event e;
      e.time = jobs_[j].arrival;
      e.type = EventType::kJobArrival;
      e.job = j;
      queue_.push(e);
    }

    while (!queue_.empty()) {
      const Event e = queue_.pop();
      clock_.advance_to(e.time);
      switch (e.type) {
        case EventType::kJobArrival: handle_arrival(e.job); break;
        case EventType::kTaskReady: handle_ready(e); break;
        case EventType::kTaskFinish: handle_finish(e); break;
        case EventType::kNodeCrash: handle_crash(e.node); break;
        case EventType::kNodeRecover: handle_recover(e.node); break;
        case EventType::kSlowdownBegin:
          handle_slowdown(e.node, e.factor, EventType::kSlowdownBegin);
          break;
        case EventType::kSlowdownEnd:
          handle_slowdown(e.node, 1.0, EventType::kSlowdownEnd);
          break;
        case EventType::kJitterChange: handle_jitter(e); break;
        case EventType::kTaskStart:
        case EventType::kTaskLost:
          break;  // trace-only types are never enqueued
      }
    }
    return finalize();
  }

 private:
  struct RunningTask {
    std::size_t job = 0;
    TaskId task = 0;
    double remaining = 0.0;        // cost units left
    double rate = 1.0;             // cost units per time unit
    double rate_since = 0.0;       // time of the last (re)pricing
    std::uint64_t generation = 0;  // matches the pending finish event
  };

  struct NodeState {
    bool alive = true;
    double slow_factor = 1.0;
    std::optional<RunningTask> running;
    std::deque<std::pair<std::size_t, TaskId>> queue;  // (job, task) dispatch order
    double busy = 0.0;  // wall time occupied by tasks (lost attempts included)
  };

  struct TaskState {
    NodeId node = 0;
    std::size_t pending_inputs = 0;
    double input_arrival = 0.0;    // latest input arrival seen so far
    std::uint64_t generation = 0;  // bumped on every (re)start/invalidaton
    bool ready = false;
    bool done = false;
  };

  struct JobState {
    double planned_makespan = 0.0;
    std::size_t remaining = 0;
    std::vector<TaskState> tasks;
  };

  void validate_inputs() const {
    validate_faults(faults_, network_.node_count());
    validate_jitter(jitter_script_, network_.node_count());
    double previous = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const double arrival = jobs_[j].arrival;
      if (!std::isfinite(arrival) || arrival < 0.0 || arrival < previous) {
        throw std::invalid_argument(
            "job arrival times must be finite, non-negative and non-decreasing");
      }
      previous = arrival;
    }
  }

  /// Folds one event into the running trace hash (FNV-1a over the
  /// concatenated lines equals FNV-1a over trace_to_string), and keeps it
  /// only when the caller asked for the trace.
  void record(const Event& e) {
    line_.clear();
    append_event(line_, e);
    trace_hash_ = fnv1a64(line_, trace_hash_);
    ++trace_events_;
    if (trace_ != nullptr) trace_->push_back(e);
  }

  void record(EventType type, std::size_t job = 0, std::uint32_t task = 0,
              std::uint32_t node = 0) {
    Event e;
    e.time = clock_.now();
    e.type = type;
    e.job = job;
    e.task = task;
    e.node = node;
    record(e);
  }

  [[nodiscard]] double jitter_factor(NodeId a, NodeId b) const {
    if (a == b) return 1.0;
    const std::pair<NodeId, NodeId> key = std::minmax(a, b);
    const auto it = link_jitter_.find(key);
    return it != link_jitter_.end() ? it->second : global_jitter_;
  }

  /// The moment a job arrives, the scheduler plans it on the pristine
  /// shared network (no knowledge of load, faults, or jitter); placements
  /// and per-node dispatch order are then irrevocable.
  void handle_arrival(std::size_t j) {
    record(EventType::kJobArrival, j);
    const TaskGraph& graph = jobs_[j].graph;
    JobState& js = states_[j];
    js.remaining = graph.task_count();
    js.tasks.assign(graph.task_count(), TaskState{});
    if (graph.task_count() == 0) {
      complete_job(j);
      return;
    }

    ProblemInstance inst;
    inst.network = network_;
    inst.graph = graph;
    const Schedule planned = scheduler_.schedule(inst, arena_);
    js.planned_makespan = planned.makespan();

    // Per-node dispatch order: planned start, then planned finish, then
    // task id — the stochastic::reexecute rank — so zero-fault replay of a
    // builder schedule reproduces its start times exactly.
    struct PlannedTask {
      double start;
      double finish;
      TaskId task;
      NodeId node;
    };
    std::vector<PlannedTask> order;
    order.reserve(graph.task_count());
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      const Assignment& a = planned.of_task(t);
      js.tasks[t].node = a.node;
      js.tasks[t].pending_inputs = graph.predecessors(t).size();
      order.push_back({a.start, a.finish, t, a.node});
    }
    std::sort(order.begin(), order.end(), [](const PlannedTask& a, const PlannedTask& b) {
      if (a.start != b.start) return a.start < b.start;
      if (a.finish != b.finish) return a.finish < b.finish;
      return a.task < b.task;
    });
    std::vector<NodeId> touched;
    for (const PlannedTask& p : order) {
      nodes_[p.node].queue.emplace_back(j, p.task);
      if (std::find(touched.begin(), touched.end(), p.node) == touched.end()) {
        touched.push_back(p.node);
      }
    }
    for (TaskId t = 0; t < graph.task_count(); ++t) {
      if (js.tasks[t].pending_inputs == 0) {
        js.tasks[t].input_arrival = clock_.now();
        js.tasks[t].ready = true;
      }
    }
    for (const NodeId v : touched) try_dispatch(v);
  }

  void handle_ready(const Event& e) {
    TaskState& ts = states_[e.job].tasks[e.task];
    ts.ready = true;
    try_dispatch(ts.node);
  }

  /// Starts queued tasks on v while it is alive and idle. Head-of-line:
  /// a not-yet-ready head blocks the node, preserving the planned order.
  void try_dispatch(NodeId v) {
    NodeState& ns = nodes_[v];
    while (ns.alive && !ns.running && !ns.queue.empty()) {
      const auto [j, t] = ns.queue.front();
      TaskState& ts = states_[j].tasks[t];
      if (!ts.ready) break;
      ns.queue.pop_front();
      RunningTask r;
      r.job = j;
      r.task = t;
      r.remaining = jobs_[j].graph.cost(t);
      r.rate = network_.speed(v) / ns.slow_factor;
      r.rate_since = clock_.now();
      r.generation = ++ts.generation;
      ns.running = r;
      record(EventType::kTaskStart, j, t, v);
      Event finish;
      finish.time = clock_.now() + r.remaining / r.rate;
      finish.type = EventType::kTaskFinish;
      finish.job = j;
      finish.task = t;
      finish.node = v;
      finish.generation = r.generation;
      queue_.push(finish);
    }
  }

  void handle_finish(const Event& e) {
    NodeState& ns = nodes_[e.node];
    if (!ns.running || ns.running->job != e.job || ns.running->task != e.task ||
        ns.running->generation != e.generation) {
      return;  // stale: the attempt was lost or repriced since
    }
    ns.busy += clock_.now() - ns.running->rate_since;
    ns.running.reset();
    TaskState& ts = states_[e.job].tasks[e.task];
    ts.done = true;
    ++tasks_completed_;
    makespan_ = clock_.now();  // finishes are processed in time order
    record(EventType::kTaskFinish, e.job, e.task, e.node);

    const TaskGraph& graph = jobs_[e.job].graph;
    for (const TaskId s : graph.successors(static_cast<TaskId>(e.task))) {
      TaskState& succ = states_[e.job].tasks[s];
      const double transfer = network_.comm_time(
          graph.dependency_cost(static_cast<TaskId>(e.task), s), e.node, succ.node);
      const double arrival =
          clock_.now() + transfer * jitter_factor(e.node, succ.node);
      succ.input_arrival = std::max(succ.input_arrival, arrival);
      if (--succ.pending_inputs == 0) {
        Event ready;
        ready.time = succ.input_arrival;
        ready.type = EventType::kTaskReady;
        ready.job = e.job;
        ready.task = s;
        ready.node = succ.node;
        queue_.push(ready);
      }
    }
    if (--states_[e.job].remaining == 0) complete_job(e.job);
    try_dispatch(e.node);
  }

  void complete_job(std::size_t j) {
    ++completed_jobs_;
    const double span = clock_.now() - jobs_[j].arrival;
    responses_.push_back(span);
    const double planned = states_[j].planned_makespan;
    degradations_.push_back(planned > 0.0 ? span / planned : 1.0);
  }

  /// A crash destroys the in-flight task entirely: its full cost re-executes
  /// once the node recovers (the placement holds, and it returns to the
  /// front of the node's queue). Completed outputs survive the crash.
  void handle_crash(NodeId v) {
    record(EventType::kNodeCrash, 0, 0, v);
    NodeState& ns = nodes_[v];
    ns.alive = false;
    if (ns.running) {
      const RunningTask r = *ns.running;
      ns.busy += clock_.now() - r.rate_since;
      record(EventType::kTaskLost, r.job, r.task, v);
      ++reexecutions_;
      ++states_[r.job].tasks[r.task].generation;  // invalidate the finish event
      ns.queue.emplace_front(r.job, r.task);
      ns.running.reset();
    }
  }

  void handle_recover(NodeId v) {
    record(EventType::kNodeRecover, 0, 0, v);
    nodes_[v].alive = true;
    try_dispatch(v);
  }

  /// Remaining-work repricing: work done so far at the old rate is banked,
  /// and the rest finishes at the new rate — so a slowdown window stretches
  /// exactly the work overlapping it.
  void handle_slowdown(NodeId v, double factor, EventType traced_as) {
    NodeState& ns = nodes_[v];
    {
      Event e;
      e.time = clock_.now();
      e.type = traced_as;
      e.node = v;
      e.factor = factor;
      record(e);
    }
    ns.slow_factor = factor;
    if (!ns.running) return;
    RunningTask& r = *ns.running;
    const double elapsed = clock_.now() - r.rate_since;
    ns.busy += elapsed;
    r.remaining = std::max(0.0, r.remaining - elapsed * r.rate);
    r.rate = network_.speed(v) / factor;
    r.rate_since = clock_.now();
    r.generation = ++states_[r.job].tasks[r.task].generation;
    Event finish;
    finish.time = clock_.now() + r.remaining / r.rate;
    finish.type = EventType::kTaskFinish;
    finish.job = r.job;
    finish.task = r.task;
    finish.node = v;
    finish.generation = r.generation;
    queue_.push(finish);
  }

  /// Jitter multiplies communication times of transfers that *start* (i.e.
  /// whose producing task finishes) at or after the change.
  void handle_jitter(const Event& e) {
    Event traced = e;
    traced.time = clock_.now();
    record(traced);
    if (e.has_link) {
      const std::pair<NodeId, NodeId> key = std::minmax(e.node, e.peer);
      link_jitter_[key] = e.factor;
    } else {
      global_jitter_ = e.factor;
    }
  }

  SimReport finalize() const {
    SimReport report;
    report.jobs = jobs_.size();
    report.completed_jobs = completed_jobs_;
    report.tasks_completed = tasks_completed_;
    report.reexecutions = reexecutions_;
    report.makespan = makespan_;
    report.response = summarize(responses_);
    report.degradation = summarize(degradations_);
    report.utilization.reserve(nodes_.size());
    for (const NodeState& ns : nodes_) {
      report.utilization.push_back(makespan_ > 0.0 ? ns.busy / makespan_ : 0.0);
    }
    report.trace_hash = trace_hash_;
    report.trace_events = trace_events_;
    return report;
  }

  const Network& network_;
  const std::vector<SimJob>& jobs_;
  const Scheduler& scheduler_;
  const std::vector<FaultEvent>& faults_;
  const std::vector<JitterEvent>& jitter_script_;
  TimelineArena* arena_ = nullptr;
  std::vector<Event>* trace_ = nullptr;  // the caller's, when it wants the events

  EventQueue queue_;
  SimClock clock_;
  std::vector<NodeState> nodes_;
  std::vector<JobState> states_;
  std::map<std::pair<NodeId, NodeId>, double> link_jitter_;
  double global_jitter_ = 1.0;
  std::string line_;  // the event being hashed, reused across events
  std::uint64_t trace_hash_ = kFnv1a64Basis;
  std::size_t trace_events_ = 0;
  std::vector<double> responses_;
  std::vector<double> degradations_;
  std::size_t completed_jobs_ = 0;
  std::size_t tasks_completed_ = 0;
  std::size_t reexecutions_ = 0;
  double makespan_ = 0.0;
};

}  // namespace

std::string trace_to_string(const std::vector<Event>& trace) {
  std::string out;
  out.reserve(trace.size() * 48);
  for (const Event& e : trace) append_event(out, e);
  return out;
}

SimReport simulate_jobs(const Network& network, const std::vector<SimJob>& jobs,
                        const Scheduler& scheduler, const std::vector<FaultEvent>& faults,
                        const std::vector<JitterEvent>& jitter, TimelineArena* arena,
                        std::vector<Event>* trace) {
  return Simulation(network, jobs, scheduler, faults, jitter, arena, trace).run();
}

std::vector<double> arrival_times(const Scenario& scenario, std::uint64_t seed) {
  if (scenario.arrivals.kind == ArrivalProcess::Kind::kTrace) return scenario.arrivals.times;
  // Exponential gaps via inverse transform; the stream depends only on the
  // master seed, so every scheduler in a roster faces the same arrivals.
  Rng rng(derive_seed(seed, {0x51a7a221ULL}));
  std::vector<double> times;
  times.reserve(scenario.arrivals.jobs);
  double t = 0.0;
  for (std::size_t j = 0; j < scenario.arrivals.jobs; ++j) {
    t += -std::log(1.0 - rng.uniform()) / scenario.arrivals.rate;
    times.push_back(t);
  }
  return times;
}

Workload make_workload(const Scenario& scenario, std::uint64_t seed, ThreadPool* pool) {
  scenario.validate();
  const auto source = datasets::DatasetRegistry::instance().make(scenario.dataset, seed);
  Workload workload;
  // The shared network is instance 0's network; job j streams instance j's
  // task graph onto it.
  workload.network = source->generate(0).network;
  const std::vector<double> times = arrival_times(scenario, seed);
  workload.jobs.resize(times.size());
  // Job j reads only (scenario, seed, j) and writes only its own slot.
  const auto build = [&](std::size_t j) {
    TaskGraph graph = source->generate(j).graph;
    if (scenario.noise_cv > 0.0) {
      // Reuse the stochastic envelope for execution-time draws: lift the
      // job onto the shared network, perturb every weight, and keep the
      // realised graph (the network itself stays fixed — the fault and
      // jitter scripts own its dynamics).
      ProblemInstance base;
      base.network = workload.network;
      base.graph = std::move(graph);
      stochastic::StochasticInstance stochastic(base);
      stochastic.apply_relative_noise(scenario.noise_cv);
      graph = stochastic.realize(derive_seed(seed, {0x105eca11ULL, j})).graph;
    }
    workload.jobs[j].arrival = times[j];
    workload.jobs[j].graph = std::move(graph);
  };
  if (pool != nullptr) {
    pool->parallel_for(times.size(), build);
  } else {
    for (std::size_t j = 0; j < times.size(); ++j) build(j);
  }
  return workload;
}

SimReport simulate_scenario(const Scenario& scenario, const Scheduler& scheduler,
                            std::uint64_t seed, TimelineArena* arena,
                            std::vector<Event>* trace) {
  const Workload workload = make_workload(scenario, seed);
  return simulate_jobs(workload.network, workload.jobs, scheduler, scenario.faults,
                       scenario.jitter, arena, trace);
}

}  // namespace saga::sim
