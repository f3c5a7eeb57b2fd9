/// Shared-evaluation-kernel microbenchmark (plain chrono, no Google
/// Benchmark, so it always builds). Reports
///   1. per-scheduler ns/schedule on a 64-task layered DAG, one-shot
///      (`schedule(inst)`: private view + scratch per call, the shape of
///      the pre-kernel implementation) vs warm-arena
///      (`schedule(inst, &arena)`: cached InstanceView + recycled
///      TimelineScratch, the PISA hot path), and
///   2. per-step PISA throughput on the Fig. 4 configuration (paper
///      annealing defaults, 5 restarts) for a sample of scheduler pairs.
///
/// Results are written to BENCH_kernel.json (or argv[1]) so future PRs can
/// track the perf trajectory. The committed copy at the repo root also
/// records the pre-kernel (PR 1 seed) aggregate measured on the same
/// machine, giving the kernel's end-to-end speedup.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "graph/problem_instance.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "sched/timeline.hpp"

namespace {

using namespace saga;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Random layered DAG (same construction as bench_scheduler_perf).
ProblemInstance layered_instance(std::size_t tasks, std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;
  std::vector<TaskId> previous_layer;
  std::vector<TaskId> current_layer;
  for (std::size_t i = 0; i < tasks; ++i) {
    const TaskId t = inst.graph.add_task(rng.uniform(0.5, 2.0));
    if (!previous_layer.empty()) {
      const auto preds = std::min<std::size_t>(previous_layer.size(), 1 + rng.index(3));
      for (std::size_t p = 0; p < preds; ++p) {
        inst.graph.add_dependency(previous_layer[rng.index(previous_layer.size())], t,
                                  rng.uniform(0.1, 1.0));
      }
    }
    current_layer.push_back(t);
    if (current_layer.size() == 4) {
      previous_layer = std::move(current_layer);
      current_layer.clear();
    }
  }
  inst.network = Network(nodes);
  for (NodeId v = 0; v < nodes; ++v) inst.network.set_speed(v, rng.uniform(0.5, 2.0));
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      inst.network.set_strength(a, b, rng.uniform(0.5, 2.0));
    }
  }
  return inst;
}

struct SchedulerTiming {
  std::string name;
  double ns_one_shot = 0.0;
  double ns_arena = 0.0;
};

SchedulerTiming time_scheduler(const std::string& name, const ProblemInstance& inst) {
  const auto scheduler = make_scheduler(name, 1);
  SchedulerTiming timing;
  timing.name = name;

  // Calibrate a repeat count for ~50 ms per mode, then measure.
  const auto measure = [&](TimelineArena* arena) {
    auto t0 = Clock::now();
    std::size_t reps = 1;
    double total = 0.0;
    for (;;) {
      for (std::size_t i = 0; i < reps; ++i) {
        volatile double sink = scheduler->schedule(inst, arena).makespan();
        (void)sink;
      }
      total = seconds_since(t0);
      if (total > 0.05) break;
      reps *= 4;
      t0 = Clock::now();
    }
    return total / static_cast<double>(reps) * 1e9;
  };

  TimelineArena arena;
  timing.ns_arena = measure(&arena);
  timing.ns_one_shot = measure(nullptr);
  return timing;
}

struct PisaTiming {
  std::string target;
  std::string baseline;
  double steps_per_sec = 0.0;
};

PisaTiming time_pisa_pair(const std::string& target_name, const std::string& baseline_name) {
  const auto target = make_scheduler(target_name, 1);
  const auto baseline = make_scheduler(baseline_name, 2);
  pisa::PisaOptions options;  // paper defaults: Tmax 10, Tmin 0.1, alpha 0.99, 5 restarts
  TimelineArena arena;

  std::size_t steps = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 3; ++rep) {
    const auto result =
        pisa::run_pisa(*target, *baseline, options, 42 + static_cast<std::uint64_t>(rep), &arena);
    // run_pisa reports the best restart; every restart runs the same
    // temperature ladder, so total steps = restarts * iterations.
    steps += options.restarts * result.iterations;
  }
  PisaTiming timing;
  timing.target = target_name;
  timing.baseline = baseline_name;
  timing.steps_per_sec = static_cast<double>(steps) / seconds_since(t0);
  return timing;
}

/// Per-component kernel costs, so regressions are attributable without
/// re-profiling: the raw eft_row sweep and the annealing-step cost split by
/// perturbation class (weight-only vs structural).
struct ComponentTimings {
  double eft_row_ns = 0.0;
  double weight_only_step_ns = 0.0;
  double structural_step_ns = 0.0;
};

/// ns per eft_row sweep (append mode, all nodes) on the 64-task instance,
/// measured on a warm arena against a source task so the row cost is pure
/// sweep, not gap-scan.
double time_eft_row(const ProblemInstance& inst) {
  TimelineArena arena;
  TimelineBuilder builder(inst, &arena);
  const TaskId source = builder.ready_tasks().front();
  volatile double sink = 0.0;
  auto t0 = Clock::now();
  std::size_t reps = 1024;
  double total = 0.0;
  for (;;) {
    for (std::size_t i = 0; i < reps; ++i) {
      sink = builder.eft_row(source, /*insertion=*/false).finish[0];
    }
    total = seconds_since(t0);
    if (total > 0.05) break;
    reps *= 4;
    t0 = Clock::now();
  }
  (void)sink;
  return total / static_cast<double>(reps) * 1e9;
}

/// ns per annealing step (HEFT vs CPoP on the paper's chain initial
/// instance) with only the given perturbation ops enabled.
double time_anneal_class(const std::vector<pisa::PerturbationOp>& ops) {
  const auto target = make_scheduler("HEFT", 1);
  const auto baseline = make_scheduler("CPoP", 2);
  auto config = pisa::PerturbationConfig::generic();
  for (std::size_t i = 0; i < pisa::kPerturbationOpCount; ++i) config.enabled[i] = false;
  for (const auto op : ops) config.set_enabled(op, true);
  const pisa::AnnealingParams params;  // paper schedule
  const auto initial = pisa::random_chain_instance(7);
  TimelineArena arena;

  std::size_t steps = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 6; ++rep) {
    const auto result = pisa::anneal(*target, *baseline, initial, config, params,
                                     42 + static_cast<std::uint64_t>(rep), &arena);
    steps += result.iterations;
  }
  return seconds_since(t0) / static_cast<double>(steps) * 1e9;
}

ComponentTimings time_components(const ProblemInstance& inst) {
  ComponentTimings c;
  c.eft_row_ns = time_eft_row(inst);
  c.weight_only_step_ns = time_anneal_class(
      {pisa::PerturbationOp::kChangeNetworkNodeWeight, pisa::PerturbationOp::kChangeNetworkEdgeWeight,
       pisa::PerturbationOp::kChangeTaskWeight, pisa::PerturbationOp::kChangeDependencyWeight});
  c.structural_step_ns = time_anneal_class(
      {pisa::PerturbationOp::kAddDependency, pisa::PerturbationOp::kRemoveDependency});
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  // bench_kernel [out.json] [--baseline <seed steps/sec>]
  // --baseline records a pre-kernel reference measured on the same machine
  // (e.g. the PR 1 seed build) so the JSON carries the end-to-end speedup.
  std::string out_path = "BENCH_kernel.json";
  double baseline_steps_per_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_steps_per_sec = std::atof(argv[++i]);
    } else {
      out_path = arg;
    }
  }
  const auto inst = layered_instance(64, 8, 42);

  std::vector<SchedulerTiming> timings;
  for (const auto& name : benchmark_scheduler_names()) {
    timings.push_back(time_scheduler(name, inst));
    std::fprintf(stderr, "%-12s one-shot %9.0f ns  arena %9.0f ns  (%.2fx)\n",
                 timings.back().name.c_str(), timings.back().ns_one_shot, timings.back().ns_arena,
                 timings.back().ns_one_shot / timings.back().ns_arena);
  }

  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"HEFT", "CPoP"}, {"MinMin", "MaxMin"}, {"ETF", "OLB"}, {"BIL", "GDL"}, {"WBA", "MCT"}};
  std::vector<PisaTiming> pisa_timings;
  double pisa_total_steps_per_sec = 0.0;
  for (const auto& [t, b] : pairs) {
    pisa_timings.push_back(time_pisa_pair(t, b));
    pisa_total_steps_per_sec += pisa_timings.back().steps_per_sec;
    std::fprintf(stderr, "PISA %s/%s: %.0f steps/sec\n", t.c_str(), b.c_str(),
                 pisa_timings.back().steps_per_sec);
  }
  const double pisa_mean = pisa_total_steps_per_sec / static_cast<double>(pairs.size());
  std::fprintf(stderr, "PISA mean: %.0f steps/sec\n", pisa_mean);

  const ComponentTimings components = time_components(inst);
  std::fprintf(stderr, "eft_row sweep: %.1f ns\n", components.eft_row_ns);
  std::fprintf(stderr, "weight-only step: %.0f ns  structural step: %.0f ns\n",
               components.weight_only_step_ns, components.structural_step_ns);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"kernel\",\n");
  std::fprintf(out, "  \"instance\": {\"tasks\": 64, \"nodes\": 8, \"kind\": \"layered\"},\n");
  std::fprintf(out, "  \"schedulers\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ns_per_schedule_one_shot\": %.0f, "
                 "\"ns_per_schedule_arena\": %.0f, \"arena_speedup\": %.3f}%s\n",
                 t.name.c_str(), t.ns_one_shot, t.ns_arena, t.ns_one_shot / t.ns_arena,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"pisa\": {\n");
  std::fprintf(out, "    \"config\": \"fig4 defaults: Tmax 10, Tmin 0.1, alpha 0.99, "
                    "5 restarts, chain initial instances\",\n");
  std::fprintf(out, "    \"pairs\": [\n");
  for (std::size_t i = 0; i < pisa_timings.size(); ++i) {
    const auto& p = pisa_timings[i];
    std::fprintf(out,
                 "      {\"target\": \"%s\", \"baseline\": \"%s\", \"steps_per_sec\": %.0f}%s\n",
                 p.target.c_str(), p.baseline.c_str(), p.steps_per_sec,
                 i + 1 < pisa_timings.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"components\": {\n");
  std::fprintf(out, "      \"eft_row_sweep_ns\": %.1f,\n", components.eft_row_ns);
  std::fprintf(out, "      \"weight_only_step_ns\": %.0f,\n", components.weight_only_step_ns);
  std::fprintf(out, "      \"structural_step_ns\": %.0f\n", components.structural_step_ns);
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"mean_steps_per_sec\": %.0f", pisa_mean);
  if (baseline_steps_per_sec > 0.0) {
    std::fprintf(out, ",\n    \"seed_baseline_steps_per_sec\": %.0f", baseline_steps_per_sec);
    std::fprintf(out, ",\n    \"speedup_vs_seed\": %.3f", pisa_mean / baseline_steps_per_sec);
  }
  std::fprintf(out, "\n  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
