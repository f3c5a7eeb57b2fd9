#include "schedulers/gdl.hpp"

#include <limits>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void GdlScheduler::plan(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  auto& ws = builder.workspace();
  std::vector<double>& sl = ws.d0;
  std::vector<double>& mean_exec = ws.d1;
  static_levels(view, sl);
  mean_exec_times(view, mean_exec);
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = 0.0;
    double best_dl = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double delta = mean_exec[t] - builder.exec_time(t, v);
        const double dl = sl[t] - row.start[v] + delta;
        if (!found || dl > best_dl || (dl == best_dl && t < best_task)) {
          best_dl = dl;
          best_task = t;
          best_node = v;
          best_start = row.start[v];
          found = true;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}


void register_gdl_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "GDL";
  desc.aliases = {"DLS"};
  desc.summary = "Generalized Dynamic Level / DLS (Sih & Lee 1993): maximise static level minus availability";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_link_strengths = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<GdlScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
