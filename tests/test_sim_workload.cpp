// The shared simulation workload (sim::make_workload). A simulate-mode
// experiment builds its jobs once, across the worker pool, and every
// scheduler's cell replays that one copy. Pins:
//
//   - a pool of any size (1..4 threads) builds the serial workload bit for
//     bit: the network, every arrival, every task and dependency weight,
//   - the weight noise is really drawn (the check above is not vacuous),
//   - each cell of an experiment reports exactly what simulate_scenario
//     reports for that scheduler alone.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "exp/experiment.hpp"
#include "exp/resultstore.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace saga;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Blast workflows streamed onto a 4-node network with weight noise, under
/// a crash/recover pair, a slowdown window and global + per-link jitter.
sim::Scenario blast_scenario(std::size_t jobs) {
  sim::Scenario s;
  s.dataset = "blast?min_nodes=4&max_nodes=4";
  s.arrivals.kind = sim::ArrivalProcess::Kind::kPoisson;
  s.arrivals.rate = 0.0005;
  s.arrivals.jobs = jobs;
  sim::FaultEvent crash;
  crash.kind = sim::FaultEvent::Kind::kCrash;
  crash.node = 1;
  crash.at = 5000.0;
  s.faults.push_back(crash);
  sim::FaultEvent recover = crash;
  recover.kind = sim::FaultEvent::Kind::kRecover;
  recover.at = 9000.0;
  s.faults.push_back(recover);
  sim::FaultEvent slow;
  slow.kind = sim::FaultEvent::Kind::kSlowdown;
  slow.node = 0;
  slow.at = 2000.0;
  slow.until = 8000.0;
  slow.factor = 2.0;
  s.faults.push_back(slow);
  sim::JitterEvent global;
  global.factor = 1.1;
  s.jitter.push_back(global);
  sim::JitterEvent link;
  link.at = 4000.0;
  link.has_link = true;
  link.a = 0;
  link.b = 2;
  link.factor = 2.0;
  s.jitter.push_back(link);
  s.noise_cv = 0.2;
  return s;
}

/// Counts the weights (arrivals, task and dependency costs) whose bits
/// differ between two workloads of the same shape.
std::size_t differing_weights(const sim::Workload& got, const sim::Workload& want) {
  std::size_t differ = 0;
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    const TaskGraph& a = got.jobs[j].graph;
    const TaskGraph& b = want.jobs[j].graph;
    differ += same_bits(got.jobs[j].arrival, want.jobs[j].arrival) ? 0 : 1;
    for (TaskId t = 0; t < b.task_count(); ++t) differ += same_bits(a.cost(t), b.cost(t)) ? 0 : 1;
    for (const auto& [from, to] : b.dependencies()) {
      differ += same_bits(a.dependency_cost(from, to), b.dependency_cost(from, to)) ? 0 : 1;
    }
  }
  return differ;
}

void expect_same_shape(const sim::Workload& got, const sim::Workload& want) {
  ASSERT_EQ(got.network.node_count(), want.network.node_count());
  for (NodeId a = 0; a < want.network.node_count(); ++a) {
    EXPECT_TRUE(same_bits(got.network.speed(a), want.network.speed(a))) << "node " << a;
    for (NodeId b = a + 1; b < want.network.node_count(); ++b) {
      EXPECT_TRUE(same_bits(got.network.strength(a, b), want.network.strength(a, b)))
          << "link " << a << "-" << b;
    }
  }
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    ASSERT_EQ(got.jobs[j].graph.task_count(), want.jobs[j].graph.task_count()) << "job " << j;
    ASSERT_EQ(got.jobs[j].graph.dependencies(), want.jobs[j].graph.dependencies())
        << "job " << j;
  }
}

TEST(SimWorkload, PoolBuildMatchesTheSerialBuildForAnyThreadCount) {
  const sim::Scenario scenario = blast_scenario(24);
  const sim::Workload serial = sim::make_workload(scenario, 42);
  ASSERT_EQ(serial.jobs.size(), scenario.arrivals.jobs);
  EXPECT_EQ(serial.network.node_count(), 4u);

  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    const sim::Workload built = sim::make_workload(scenario, 42, &pool);
    expect_same_shape(built, serial);
    EXPECT_EQ(differing_weights(built, serial), 0u) << threads << " threads";
  }
}

TEST(SimWorkload, NoiseRedrawsTheWeights) {
  sim::Scenario exact = blast_scenario(4);
  exact.noise_cv = 0.0;
  const sim::Workload noisy = sim::make_workload(blast_scenario(4), 42);
  const sim::Workload plain = sim::make_workload(exact, 42);
  expect_same_shape(noisy, plain);
  EXPECT_GT(differing_weights(noisy, plain), 0u);
}

// The experiment builds the workload once and shares it across its cells;
// each cell must still report what a lone simulate_scenario reports. The
// roster is deterministic, so the per-cell scheduler seed does not matter.
TEST(SimWorkload, SharedWorkloadCellsMatchPerSchedulerSimulation) {
  exp::ExperimentSpec spec;
  spec.mode = exp::Mode::kSimulate;
  spec.schedulers = {"HEFT", "MinMin", "ETF"};
  spec.scenario = blast_scenario(12);
  spec.seed = 7;
  spec.threads = 3;
  std::ostringstream sink;
  const exp::ExperimentResult result = exp::run_experiment(spec, sink);
  ASSERT_EQ(result.sims.size(), spec.schedulers.size());
  for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
    const sim::SimReport alone =
        sim::simulate_scenario(spec.scenario, *make_scheduler(spec.schedulers[s]), spec.seed);
    EXPECT_EQ(exp::sim_report_to_json(result.sims[s].report).dump(),
              exp::sim_report_to_json(alone).dump())
        << spec.schedulers[s];
  }
}

}  // namespace
