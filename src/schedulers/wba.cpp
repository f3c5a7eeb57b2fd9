#include "schedulers/wba.hpp"

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void WbaScheduler::plan(TimelineBuilder& builder) const {
  Rng rng(seed_);
  const InstanceView& view = builder.view();

  // The option list lives in the pooled workspace, decomposed into parallel
  // arrays (task, node, increase) so a warm arena makes the whole build
  // allocation-free.
  auto& ws = builder.workspace();
  std::vector<TaskId>& opt_task = ws.tasks;
  std::vector<NodeId>& opt_node = ws.nodes;
  std::vector<double>& opt_increase = ws.d0;
  std::vector<std::uint32_t>& candidates = ws.idx;

  while (!builder.complete()) {
    opt_task.clear();
    opt_node.clear();
    opt_increase.clear();
    double min_inc = std::numeric_limits<double>::infinity();
    double max_inc = -std::numeric_limits<double>::infinity();
    const double current = builder.current_makespan();
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double increase = std::max(0.0, row.finish[v] - current);
        opt_task.push_back(t);
        opt_node.push_back(v);
        opt_increase.push_back(increase);
        min_inc = std::min(min_inc, increase);
        max_inc = std::max(max_inc, increase);
      }
    }

    // Keep every option within the tolerance band of the least increase and
    // choose uniformly among them.
    const double band = min_inc + tolerance_ * (max_inc - min_inc);
    candidates.clear();
    for (std::size_t i = 0; i < opt_increase.size(); ++i) {
      if (opt_increase[i] <= band + 1e-15) {
        candidates.push_back(static_cast<std::uint32_t>(i));
      }
    }
    const std::size_t chosen = candidates[rng.index(candidates.size())];
    builder.place_earliest(opt_task[chosen], opt_node[chosen], /*insertion=*/false);
  }
}


void register_wba_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "WBA";
  desc.summary = "Workflow-Based Allocation (Blythe et al. 2005): randomized greedy, least makespan increase per step";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.randomized = true;
  desc.params = {{"tolerance", "width of the random-choice band in [0,1] (default 0.5)"}};
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    return std::make_unique<WbaScheduler>(seed, params.get_double("tolerance", 0.5));
  };
  registry.add(std::move(desc));
}

}  // namespace saga
