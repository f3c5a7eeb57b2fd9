#include "schedulers/minmin.hpp"

#include <limits>

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MinMinScheduler::plan(TimelineBuilder& builder) const {
  const std::size_t nodes = builder.view().node_count();
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = 0.0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < nodes; ++v) {
        if (row.finish[v] < best_finish) {
          best_finish = row.finish[v];
          best_start = row.start[v];
          best_task = t;
          best_node = v;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}


void register_minmin_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MinMin";
  desc.summary = "MinMin (Braun et al. 2001): smallest minimum-completion-time ready task goes first";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MinMinScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
