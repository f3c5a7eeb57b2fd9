#include "schedulers/maxmin.hpp"

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MaxMinScheduler::plan(TimelineBuilder& builder) const {
  while (!builder.complete()) {
    TaskId chosen_task = 0;
    NodeId chosen_node = 0;
    double chosen_start = 0.0;
    double chosen_mct = -1.0;
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      // Minimum completion time of t across nodes.
      const auto choice = builder.best_eft(t, /*insertion=*/false);
      if (!found || choice.finish > chosen_mct) {
        chosen_mct = choice.finish;
        chosen_start = choice.start;
        chosen_task = t;
        chosen_node = choice.node;
        found = true;
      }
    }
    builder.place(chosen_task, chosen_node, chosen_start);
  }
}


void register_maxmin_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MaxMin";
  desc.summary = "MaxMin (Braun et al. 2001): largest minimum-completion-time ready task goes first";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MaxMinScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
