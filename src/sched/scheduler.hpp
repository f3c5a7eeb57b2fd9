#pragma once

#include <memory>
#include <string_view>

#include "graph/problem_instance.hpp"
#include "sched/schedule.hpp"

/// \file scheduler.hpp
/// Common interface of all 26 built-in schedulers: the 17 of the paper's
/// Table I, 8 extensions, and the Online adapter. ListScheduler is the base
/// of the 18 that build their schedule on a TimelineBuilder.

namespace saga {

class TimelineArena;
class TimelineBuilder;

/// Network-model restrictions a scheduler was designed for. The paper's
/// PISA setup honours these by fixing the corresponding weights to 1 and
/// excluding them from perturbation (Section VI): ETF, FCP and FLB assume
/// homogeneous node speeds; BIL, GDL, FCP and FLB assume homogeneous link
/// strengths.
struct NetworkRequirements {
  bool homogeneous_node_speeds = false;
  bool homogeneous_link_strengths = false;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short display name matching the paper's tables ("HEFT", "CPoP", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual NetworkRequirements requirements() const { return {}; }

  /// Produces a valid schedule for the instance. Implementations are
  /// deterministic: randomized schedulers (WBA) derive their stream from a
  /// constructor-provided seed.
  ///
  /// `arena` supplies the shared evaluation kernel's cached InstanceView
  /// and recycled timeline scratch (see sched/arena.hpp); hot loops such as
  /// PISA pass one arena per worker thread so repeated calls are
  /// allocation-free. A null arena is always valid and falls back to
  /// one-shot state. The schedule produced is identical either way.
  [[nodiscard]] virtual Schedule schedule(const ProblemInstance& inst,
                                          TimelineArena* arena) const = 0;

  /// Makespan of the schedule this scheduler would produce, without
  /// materializing the Schedule object. Bit-identical to
  /// `schedule(inst, arena).makespan()` — the hot-loop form for objectives
  /// (PISA evaluates two schedulers per annealing step and only needs the
  /// scalar). The default forwards to schedule(); ListScheduler reads the
  /// timeline's running makespan instead, which skips the Schedule
  /// allocation entirely.
  [[nodiscard]] virtual double plan_makespan(const ProblemInstance& inst,
                                             TimelineArena* arena) const {
    return schedule(inst, arena).makespan();
  }

  /// The convenience form for one-off calls (tests, tools, examples):
  /// schedules with one-shot state, no arena. Subclasses that override the
  /// two-argument form re-export it via `using Scheduler::schedule;`.
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst) const {
    return schedule(inst, nullptr);
  }
};

/// Base of the list schedulers: a subclass overrides plan() only, placing
/// every task on the builder, and inherits both entry points. schedule()
/// returns the builder's schedule and plan_makespan() its running makespan,
/// so the two agree bit for bit by construction.
class ListScheduler : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst,
                                  TimelineArena* arena) const final;
  [[nodiscard]] double plan_makespan(const ProblemInstance& inst,
                                     TimelineArena* arena) const final;

  /// Places every task of the builder's instance. The builder is fresh:
  /// nothing placed yet.
  virtual void plan(TimelineBuilder& builder) const = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace saga
