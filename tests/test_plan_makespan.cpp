#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

/// Scheduler::plan_makespan promises the makespan of the schedule that
/// schedule() would produce, bit for bit. PISA scores every annealing step
/// through it, while the figures and the daemon report schedule(); this
/// suite checks the promise for every registered scheduler, with and
/// without an arena, on PISA-style chains, on a hand-built instance with
/// zero-cost tasks and zero-size transfers, and on Table II instances.

namespace saga {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Checks the four entry points agree bitwise and the schedule validates.
void expect_consistent(const Scheduler& scheduler, const ProblemInstance& inst,
                       TimelineArena& arena, const std::string& where) {
  SCOPED_TRACE(std::string(scheduler.name()) + " on " + where);
  const double planned_arena = scheduler.plan_makespan(inst, &arena);
  const double planned_plain = scheduler.plan_makespan(inst, nullptr);
  const Schedule with_arena = scheduler.schedule(inst, &arena);
  const Schedule plain = scheduler.schedule(inst);
  EXPECT_EQ(bits(planned_arena), bits(plain.makespan()));
  EXPECT_EQ(bits(planned_plain), bits(plain.makespan()));
  EXPECT_EQ(bits(with_arena.makespan()), bits(plain.makespan()));
  const auto result = plain.validate(inst);
  EXPECT_TRUE(result.ok) << result.message;
}

/// Fork-join over three heterogeneous nodes with zero-cost tasks (the
/// source, one branch and the sink) and zero-size transfers, the
/// degenerate weights PISA's perturbations reach.
ProblemInstance zero_weight_instance() {
  ProblemInstance inst;
  inst.network = Network(3);
  inst.network.set_speed(0, 1.0);
  inst.network.set_speed(1, 2.0);
  inst.network.set_speed(2, 0.5);
  inst.network.set_strength(0, 1, 1.0);
  inst.network.set_strength(0, 2, 0.25);
  inst.network.set_strength(1, 2, 4.0);
  const TaskId source = inst.graph.add_task(0.0);
  const TaskId a = inst.graph.add_task(1.5);
  const TaskId b = inst.graph.add_task(0.0);
  const TaskId c = inst.graph.add_task(0.75);
  const TaskId sink = inst.graph.add_task(0.0);
  inst.graph.add_dependency(source, a, 0.0);
  inst.graph.add_dependency(source, b, 1.0);
  inst.graph.add_dependency(source, c, 0.0);
  inst.graph.add_dependency(a, sink, 0.5);
  inst.graph.add_dependency(b, sink, 0.0);
  inst.graph.add_dependency(c, sink, 0.0);
  return inst;
}

class PlanMakespan : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanMakespan, MatchesScheduleMakespanOnRandomChains) {
  const auto scheduler = make_scheduler(GetParam(), 31);
  TimelineArena arena;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_consistent(*scheduler, pisa::random_chain_instance(seed), arena,
                      "random chain " + std::to_string(seed));
  }
}

TEST_P(PlanMakespan, MatchesScheduleMakespanWithZeroWeights) {
  const auto scheduler = make_scheduler(GetParam(), 31);
  TimelineArena arena;
  expect_consistent(*scheduler, zero_weight_instance(), arena, "zero-weight fork-join");
}

TEST_P(PlanMakespan, MatchesScheduleMakespanOnDatasets) {
  // The exhaustive schedulers are exponential in the task count.
  if (GetParam() == "BruteForce" || GetParam() == "SMT") GTEST_SKIP();
  const auto scheduler = make_scheduler(GetParam(), 31);
  TimelineArena arena;
  for (const char* dataset : {"chains", "blast", "montage"}) {
    expect_consistent(*scheduler, datasets::generate_instance(dataset, 7, 0), arena,
                      std::string(dataset) + "[0]");
  }
}

INSTANTIATE_TEST_SUITE_P(EveryRegisteredScheduler, PlanMakespan,
                         ::testing::ValuesIn(SchedulerRegistry::instance().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace saga
