#include "tool.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/annealer.hpp"
#include "core/constraints.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "datasets/source.hpp"
#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "exp/resultstore.hpp"
#include "graph/serialization.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "serve/codec.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace saga;
using exp::Json;
using exp::JsonArray;

/// Times every plan of the wrapped scheduler as `sched.plan.<name>`, and
/// the InstanceView sync the plan would otherwise do first as `graph.sync`.
/// Delegates name, requirements, schedule and plan_makespan, so the plans
/// and every result built from them are those of the wrapped scheduler.
class TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(SchedulerPtr inner)
      : inner_(std::move(inner)), key_("sched.plan." + std::string(inner_->name())) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return inner_->requirements();
  }

  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst,
                                  TimelineArena* arena) const override {
    sync(inst, arena);
    const std::int64_t start = now_ns();
    Schedule result = inner_->schedule(inst, arena);
    add_hot(key_, now_ns() - start);
    return result;
  }

  [[nodiscard]] double plan_makespan(const ProblemInstance& inst,
                                     TimelineArena* arena) const override {
    sync(inst, arena);
    const std::int64_t start = now_ns();
    const double makespan = inner_->plan_makespan(inst, arena);
    add_hot(key_, now_ns() - start);
    return makespan;
  }

 private:
  /// A view already in sync (the annealer patches it in place) costs the
  /// stamp check only and is not counted as a sync.
  static void sync(const ProblemInstance& inst, TimelineArena* arena) {
    if (arena == nullptr || arena->view().in_sync_with(inst)) return;
    const std::int64_t start = now_ns();
    (void)arena->view_for(inst);
    add_hot("graph.sync", now_ns() - start);
  }

  SchedulerPtr inner_;
  std::string key_;
};

SchedulerPtr timed(SchedulerPtr inner) { return std::make_unique<TimedScheduler>(std::move(inner)); }

/// Times each generated instance as a `datasets.generate` span and counts
/// its tasks.
class TimedSource final : public datasets::InstanceSource {
 public:
  explicit TimedSource(datasets::InstanceSourcePtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const std::string& name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] ProblemInstance generate(std::size_t index) const override {
    Span span("datasets.generate");
    ProblemInstance inst = inner_->generate(index);
    add_count("datasets.tasks", static_cast<double>(inst.graph.task_count()));
    return inst;
  }

 private:
  datasets::InstanceSourcePtr inner_;
};

/// pisa::run_pisa with one `core.anneal` span per restart and the
/// restarts' step, evaluation and acceptance counts summed (run_pisa itself
/// returns only the best restart's). Same seed derivation as run_pisa, so
/// the traced grid must equal the untraced one; the output check enforces it.
pisa::AnnealResult traced_run_pisa(const Scheduler& target, const Scheduler& baseline,
                                   const pisa::PisaOptions& options, std::uint64_t seed,
                                   TimelineArena* arena) {
  const auto reqs = pisa::combine(target.requirements(), baseline.requirements());
  pisa::PerturbationConfig config = options.config;
  pisa::apply_requirements(config, reqs);
  pisa::AnnealResult best;
  best.best_ratio = -std::numeric_limits<double>::infinity();
  for (std::size_t run = 0; run < options.restarts; ++run) {
    const std::uint64_t run_seed = derive_seed(seed, {0x9155aULL, run});
    ProblemInstance initial = pisa::random_chain_instance(derive_seed(run_seed, {0x1417ULL}));
    pisa::normalize_instance(initial, reqs);
    pisa::AnnealResult result;
    {
      Span span("core.anneal");
      result = pisa::anneal(target, baseline, initial, config, options.params,
                            derive_seed(run_seed, {0xa22eaULL}), arena);
    }
    add_count("core.anneal.steps", static_cast<double>(result.iterations));
    add_count("core.anneal.evaluations", static_cast<double>(result.evaluations));
    add_count("core.anneal.accepted", static_cast<double>(result.accepted));
    add_count("core.anneal.runs", 1.0);
    if (result.best_ratio > best.best_ratio) best = std::move(result);
  }
  return best;
}

/// The payload run_experiment computes for one cell, with decorated
/// schedulers. Seeds derive from the cell's global coordinates exactly as
/// in exp/experiment.cpp.
Json execute_cell(const exp::ExperimentSpec& spec, const exp::CellPlan& plan,
                  const exp::WorkCell& cell, const pisa::PisaOptions& pisa_options,
                  TimelineArena& arena) {
  Json payload = Json::object();
  switch (spec.mode) {
    case exp::Mode::kBenchmark: {
      const ProblemInstance inst = plan.sources[cell.dataset]->generate(cell.instance);
      JsonArray makespans;
      for (std::size_t s = 0; s < plan.roster.size(); ++s) {
        const auto scheduler = timed(make_scheduler(
            plan.roster[s], derive_seed(spec.seed, {0xbe5cULL, s, cell.instance})));
        makespans.push_back(exp::encode_double(scheduler->schedule(inst, &arena).makespan()));
      }
      payload.set("makespans", Json::array(std::move(makespans)));
      break;
    }
    case exp::Mode::kPisaPairwise: {
      const pisa::CellSeeds seeds = pisa::pairwise_cell_seeds(spec.seed, cell.row, cell.col);
      const auto baseline = timed(make_scheduler(plan.roster[cell.row], seeds.baseline));
      const auto target = timed(make_scheduler(plan.roster[cell.col], seeds.target));
      auto result = traced_run_pisa(*target, *baseline, pisa_options, seeds.anneal, &arena);
      payload.set("ratio", exp::encode_double(result.best_ratio));
      payload.set("instance", Json::string(instance_to_string(result.best_instance)));
      break;
    }
    case exp::Mode::kSimulate: {
      const auto scheduler = timed(SchedulerRegistry::instance().make(
          plan.roster[cell.scheduler], derive_seed(spec.seed, {0x51aaULL, cell.scheduler})));
      sim::SimReport report;
      {
        Span span("sim.simulate");
        report = sim::simulate_scenario(spec.scenario, *scheduler, spec.seed, &arena);
      }
      add_count("sim.jobs", static_cast<double>(report.jobs));
      add_count("sim.reexecutions", static_cast<double>(report.reexecutions));
      payload = exp::sim_report_to_json(report);
      break;
    }
    case exp::Mode::kSchedule:
      throw std::invalid_argument("the traced run covers benchmark, pisa-pairwise and simulate");
  }
  return payload;
}

/// The body a client would receive, with chunked responses spliced.
std::string full_body(serve::HttpResponse& resp) {
  if (!resp.chunk_source) return resp.body;
  std::string body;
  for (std::string chunk = resp.chunk_source(); !chunk.empty(); chunk = resp.chunk_source()) {
    body += chunk;
  }
  return body;
}

/// One request's stages, each timed through the library's public calls:
/// body parse, instance decode or generation, plans, response encoding.
void decompose(const Request& request, TimelineArena& arena) {
  Json body;
  {
    Span span("exp.json.parse");
    body = Json::parse(request.body);
  }
  const Json* seed_field = body.find("seed");
  const std::uint64_t seed = seed_field == nullptr ? 0 : seed_field->as_u64("seed");
  ProblemInstance inst;
  if (const Json* inline_instance = body.find("instance")) {
    Span span("serve.codec.decode");
    inst = serve::instance_from_json(*inline_instance);
  } else {
    Span span("datasets.generate");
    const Json* index = body.find("index");
    inst = datasets::generate_instance(body.find("dataset")->as_string(), seed,
                                       index == nullptr ? 0 : index->as_u64("index"));
    add_count("datasets.tasks", static_cast<double>(inst.graph.task_count()));
  }
  if (const Json* name = body.find("scheduler")) {
    const auto scheduler = timed(SchedulerRegistry::instance().make(name->as_string(), seed));
    const Schedule schedule = scheduler->schedule(inst, &arena);
    Span span("serve.codec.encode");
    (void)serve::schedule_to_json(schedule).dump();
    return;
  }
  JsonArray rows;
  for (const Json& name : body.find("schedulers")->as_array()) {
    const auto scheduler = timed(SchedulerRegistry::instance().make(name.as_string(), seed));
    const double makespan = scheduler->plan_makespan(inst, &arena);
    rows.push_back(Json::object(
        {{"scheduler", Json::string(name.as_string())}, {"makespan", Json::number(makespan)}}));
  }
  Span span("serve.codec.encode");
  (void)Json::array(std::move(rows)).dump();
}

void write_report_file(const std::string& path, std::int64_t start_ns, std::size_t threads) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_report(out, now_ns() - start_ns, threads);
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace

int run_traced_spec(const std::string& spec_path, const std::string& report_path,
                    const std::string& store_dir) {
  const std::int64_t start = now_ns();
  exp::ExperimentSpec spec;
  exp::CellPlan plan;
  exp::ResultStore store(store_dir);
  std::string hash;
  {
    Span setup("exp.setup");
    Json document;
    {
      Span span("exp.json.parse");
      document = exp::load_spec_document(spec_path);
    }
    spec = exp::ExperimentSpec::from_json(document);
    spec.validate();
    plan = exp::enumerate_cells(spec);
    for (auto& source : plan.sources) source = std::make_unique<TimedSource>(std::move(source));
    hash = exp::plan_hash_hex(spec, plan);
    store.initialize(exp::frozen_spec(spec, plan), hash);
  }
  const pisa::PisaOptions pisa_options =
      spec.mode == exp::Mode::kPisaPairwise ? spec.pisa.to_options() : pisa::PisaOptions{};

  ThreadPool& pool = global_pool();
  std::vector<Json> payloads(plan.cells.size());
  {
    Span cells("exp.cells");
    const std::uint64_t parent = cells.id();
    pool.parallel_for(plan.cells.size(), [&](std::size_t k) {
      thread_local TimelineArena arena;
      const exp::WorkCell& cell = plan.cells[k];
      Span span("exp.cell", cell.index + 1, parent);
      const std::int64_t cell_start = now_ns();
      Json payload = execute_cell(spec, plan, cell, pisa_options, arena);
      {
        exp::CellRecord record;
        record.spec_hash = hash;
        record.index = cell.index;
        record.key = cell.key;
        record.seed = spec.seed;
        record.wall_ms = static_cast<double>(now_ns() - cell_start) / 1e6;
        record.payload = payload;
        Span write("exp.store.write");
        store.write_cell(record);
        char file[32];  // the store's record name (exp/resultstore.cpp)
        std::snprintf(file, sizeof file, "c%08zu.jsonl", cell.index);
        add_count("exp.store.write.bytes",
                  static_cast<double>(std::filesystem::file_size(store.dir() / "cells" / file)));
      }
      payloads[cell.index] = std::move(payload);  // distinct slots: no race
    });
  }
  exp::ExperimentResult result;
  {
    Span span("analysis.assemble");
    result = exp::assemble_result(spec, plan, payloads);
  }
  {
    Span span("exp.emit");
    std::ostringstream tables;
    exp::emit_result(spec, result, tables);
  }
  write_report_file(report_path, start, pool.thread_count());
  return 0;
}

int run_handle(const std::string& bodies_path, const std::string& digests_path,
               const std::string& report_path) {
  const std::int64_t start = now_ns();
  const std::vector<Request> requests = load_requests(bodies_path);
  const bool traced = !report_path.empty();
  serve::ScheduleService service;
  std::vector<std::string> digests(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    serve::HttpRequest req;
    req.method = "POST";
    req.target = requests[i].path;
    req.version = "HTTP/1.1";
    req.headers.emplace_back("content-type", "application/json");
    req.body = requests[i].body;
    std::optional<Span> span;
    if (traced) span.emplace("serve.handle", i + 1);
    serve::HttpResponse resp = service.handle(req);
    const std::string body = full_body(resp);
    span.reset();
    digests[i] = std::to_string(resp.status) + " " + hash_hex(fnv1a64(body));
  }
  if (traced) {
    TimelineArena arena;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Span span("serve.request", i + 1);
      decompose(requests[i], arena);
    }
  }
  std::ofstream out(digests_path);
  if (!out) throw std::runtime_error("cannot write " + digests_path);
  for (const auto& digest : digests) out << digest << "\n";
  if (traced) write_report_file(report_path, start, 1);
  return 0;
}

}  // namespace perfbench
