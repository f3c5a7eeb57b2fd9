#include "schedulers/etf.hpp"

#include <limits>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void EtfScheduler::plan(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  auto& ws = builder.workspace();
  std::vector<double>& level = ws.d0;
  static_levels(view, level);
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = std::numeric_limits<double>::infinity();
    double best_level = -1.0;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double start = row.start[v];
        const bool better =
            start < best_start ||
            (start == best_start && (level[t] > best_level ||
                                     (level[t] == best_level && t < best_task)));
        if (better) {
          best_start = start;
          best_level = level[t];
          best_task = t;
          best_node = v;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}


void register_etf_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "ETF";
  desc.summary = "Earliest Task First (Hwang et al. 1989): globally earliest start over (ready task, node) pairs";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_node_speeds = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<EtfScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
