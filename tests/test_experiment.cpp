// The declarative experiment layer: ExperimentSpec JSON round-trip with
// unknown-key rejection, --set overrides, @tag roster expansion, validation
// errors, and — crucially — bit-identical equivalence between
// run_experiment() and the underlying drivers it replaced
// (pairwise_compare / benchmark_dataset / make_scheduler).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/benchmarking.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "exp/experiment.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;
using exp::ExperimentSpec;
using exp::Json;
using exp::Mode;

ExperimentSpec small_pisa_spec() {
  ExperimentSpec spec;
  spec.mode = Mode::kPisaPairwise;
  spec.schedulers = {"HEFT", "FastestNode", "CPoP"};
  spec.pisa.restarts = 2;
  spec.pisa.max_iterations = 60;
  spec.seed = 42;
  return spec;
}

TEST(ExperimentSpecJson, RoundTripsThroughJson) {
  ExperimentSpec spec = small_pisa_spec();
  spec.name = "round-trip";
  spec.csv = "out.csv";
  spec.threads = 2;
  const ExperimentSpec reparsed = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed.to_json().dump(), spec.to_json().dump());
  EXPECT_EQ(reparsed.name, "round-trip");
  EXPECT_EQ(reparsed.mode, Mode::kPisaPairwise);
  EXPECT_EQ(reparsed.schedulers, spec.schedulers);
  EXPECT_EQ(reparsed.pisa.restarts, 2u);
  EXPECT_EQ(reparsed.seed, 42u);
  EXPECT_EQ(reparsed.threads, 2u);
  EXPECT_EQ(reparsed.csv, "out.csv");
}

TEST(ExperimentSpecJson, BenchmarkAndScheduleFieldsRoundTrip) {
  ExperimentSpec spec;
  spec.mode = Mode::kBenchmark;
  spec.schedulers = {"@app-specific"};
  spec.datasets = {{"blast", 4}, {"montage", 0}};
  EXPECT_EQ(ExperimentSpec::from_json(spec.to_json()).to_json().dump(),
            spec.to_json().dump());

  ExperimentSpec schedule;
  schedule.mode = Mode::kSchedule;
  schedule.schedulers = {"HEFT"};
  schedule.instance.dataset = "blast";
  schedule.instance.index = 3;
  const ExperimentSpec reparsed = ExperimentSpec::from_json(schedule.to_json());
  EXPECT_EQ(reparsed.instance.dataset, "blast");
  EXPECT_EQ(reparsed.instance.index, 3u);
}

TEST(ExperimentSpecJson, RejectsUnknownKeysWithSuggestion) {
  const Json doc = Json::parse(R"({"mode": "schedule", "schedulrs": ["HEFT"]})");
  try {
    (void)ExperimentSpec::from_json(doc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'schedulrs'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'schedulers'?"), std::string::npos) << what;
    EXPECT_NE(what.find("at line 1, column 1"), std::string::npos) << what;
  }
  EXPECT_THROW(
      (void)ExperimentSpec::from_json(Json::parse(R"({"pisa": {"restart": 1}})")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)ExperimentSpec::from_json(Json::parse(R"({"instance": {"files": "x"}})")),
      std::invalid_argument);
}

TEST(ExperimentSpecJson, RejectsUnknownScenarioKeysWithPosition) {
  // A typo inside a simulate spec's scenario is reported at the object that
  // holds it, the same position context the daemon's 400 bodies carry.
  const Json doc = Json::parse(
      "{\"mode\": \"simulate\",\n"
      " \"scenario\": {\"dataset\": \"blast\",\n"
      "              \"faults\": [{\"type\": \"crash\", \"node\": 0, \"att\": 1}]}}");
  try {
    (void)ExperimentSpec::from_json(doc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'att' in fault entry"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'at'?"), std::string::npos) << what;
    EXPECT_NE(what.find("at line 3, column 26"), std::string::npos) << what;
  }
  EXPECT_THROW((void)ExperimentSpec::from_json(Json::parse(
                   R"({"mode": "simulate", "scenario": {"dataset": "blast", "noise": 0.1}})")),
               std::invalid_argument);
}

TEST(ExperimentSpecJson, RejectsBadModeAndNegativeCounts) {
  EXPECT_THROW((void)ExperimentSpec::from_json(Json::parse(R"({"mode": "benchmrk"})")),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::from_json(Json::parse(R"({"seed": -1})")),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::from_json(Json::parse(R"({"seed": 1.5})")),
               std::invalid_argument);
}

TEST(ExperimentSpecJson, LoadReadsSpecFilesAndReportsMissingOnes) {
  const std::string path = testing::TempDir() + "/spec_load_test.json";
  {
    std::ofstream out(path);
    out << R"({"mode": "schedule", "schedulers": ["HEFT"],
               "instance": {"dataset": "blast", "index": 1}})";
  }
  const auto spec = ExperimentSpec::load(path);
  EXPECT_EQ(spec.mode, Mode::kSchedule);
  EXPECT_EQ(spec.instance.index, 1u);
  EXPECT_THROW((void)ExperimentSpec::load(path + ".does-not-exist"), std::runtime_error);
}

TEST(ExperimentSpecJson, SingleSchedulerStringIsAccepted) {
  const auto spec = ExperimentSpec::from_json(Json::parse(R"({"schedulers": "HEFT"})"));
  ASSERT_EQ(spec.schedulers.size(), 1u);
  EXPECT_EQ(spec.schedulers[0], "HEFT");
}

TEST(ExperimentOverrides, SetOverridesScalarsPathsAndArrays) {
  Json doc = Json::parse(R"({"mode": "pisa-pairwise", "pisa": {"restarts": 5}})");
  exp::apply_override(doc, "pisa.restarts=2");
  exp::apply_override(doc, "seed=7");
  exp::apply_override(doc, "schedulers=[\"HEFT\", \"CPoP\"]");
  exp::apply_override(doc, "name=quick check");  // bare words become strings
  const auto spec = ExperimentSpec::from_json(doc);
  EXPECT_EQ(spec.pisa.restarts, 2u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.schedulers.size(), 2u);
  EXPECT_EQ(spec.name, "quick check");
}

TEST(ExperimentOverrides, SetCreatesIntermediateObjectsAndRejectsBadPaths) {
  Json doc = Json::object();
  exp::apply_override(doc, "pisa.alpha=0.5");
  EXPECT_DOUBLE_EQ(doc.find("pisa")->find("alpha")->as_number(), 0.5);
  EXPECT_THROW(exp::apply_override(doc, "noequals"), std::invalid_argument);
  EXPECT_THROW(exp::apply_override(doc, "=5"), std::invalid_argument);
  EXPECT_THROW(exp::apply_override(doc, "a..b=5"), std::invalid_argument);
}

TEST(ExperimentValidate, DiagnosesBadSpecs) {
  ExperimentSpec spec;  // no schedulers
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_pisa_spec();
  spec.schedulers = {"heff"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_pisa_spec();
  spec.schedulers = {"HEFT"};  // pairwise needs two
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = small_pisa_spec();
  spec.pisa.alpha = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = ExperimentSpec();
  spec.mode = Mode::kBenchmark;
  spec.schedulers = {"HEFT"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no datasets
  spec.datasets = {{"blasted", 2}};
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'blast'?"), std::string::npos)
        << e.what();
  }

  spec = ExperimentSpec();
  spec.mode = Mode::kSchedule;
  spec.schedulers = {"HEFT"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no instance
  spec.instance.dataset = "blast";
  spec.instance.file = "also.txt";
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // ambiguous ref
}

TEST(ExperimentRoster, TagExpansionMatchesHistoricalRosterOrder) {
  ExperimentSpec spec;
  spec.schedulers = {"@benchmark"};
  EXPECT_EQ(spec.resolved_schedulers(), benchmark_scheduler_names());
  spec.schedulers = {"@nope"};
  EXPECT_THROW((void)spec.resolved_schedulers(), std::invalid_argument);
  spec.schedulers = {"ga?gens=5", "@app-specific"};
  const auto roster = spec.resolved_schedulers();
  EXPECT_EQ(roster.size(), 1u + app_specific_scheduler_names().size());
  EXPECT_EQ(roster.front(), "ga?gens=5");
}

TEST(ExperimentRun, PisaPairwiseIsBitIdenticalToPairwiseCompare) {
  // The acceptance pin: a spec-driven grid must reproduce the direct
  // pairwise_compare() path cell for cell.
  const ExperimentSpec spec = small_pisa_spec();
  std::ostringstream sink;
  const auto result = exp::run_experiment(spec, sink);

  pisa::PairwiseOptions options;
  options.pisa = spec.pisa.to_options();
  const auto direct = pisa::pairwise_compare(spec.schedulers, options, spec.seed);

  ASSERT_EQ(result.pairwise.scheduler_names, direct.scheduler_names);
  for (std::size_t row = 0; row < direct.ratio.size(); ++row) {
    for (std::size_t col = 0; col < direct.ratio.size(); ++col) {
      if (row == col) continue;
      EXPECT_EQ(result.pairwise.ratio[row][col], direct.ratio[row][col])
          << "cell (" << row << ", " << col << ")";
    }
  }
  EXPECT_NE(sink.str().find("Worst"), std::string::npos);
}

TEST(ExperimentRun, SerialAndThreadedPisaGridsAgree) {
  ExperimentSpec spec = small_pisa_spec();
  std::ostringstream sink;
  const auto parallel = exp::run_experiment(spec, sink);
  spec.parallel = false;
  const auto serial = exp::run_experiment(spec, sink);
  spec.parallel = true;
  spec.threads = 2;
  const auto threaded = exp::run_experiment(spec, sink);
  for (std::size_t row = 0; row < spec.schedulers.size(); ++row) {
    for (std::size_t col = 0; col < spec.schedulers.size(); ++col) {
      if (row == col) continue;  // diagonal cells are NaN
      EXPECT_EQ(parallel.pairwise.ratio[row][col], serial.pairwise.ratio[row][col]);
      EXPECT_EQ(parallel.pairwise.ratio[row][col], threaded.pairwise.ratio[row][col]);
    }
  }
}

TEST(ExperimentRun, BenchmarkModeMatchesBenchmarkDataset) {
  ExperimentSpec spec;
  spec.mode = Mode::kBenchmark;
  spec.schedulers = {"@app-specific"};
  spec.datasets = {{"blast", 4}};
  spec.seed = 42;
  std::ostringstream sink;
  const auto result = exp::run_experiment(spec, sink);

  const auto dataset = datasets::generate_dataset("blast", spec.seed, 4);
  const auto direct =
      analysis::benchmark_dataset(dataset, app_specific_scheduler_names(), spec.seed);
  ASSERT_EQ(result.benchmarks.size(), 1u);
  ASSERT_EQ(result.benchmarks[0].per_scheduler.size(), direct.per_scheduler.size());
  for (std::size_t s = 0; s < direct.per_scheduler.size(); ++s) {
    EXPECT_EQ(result.benchmarks[0].per_scheduler[s].scheduler,
              direct.per_scheduler[s].scheduler);
    EXPECT_EQ(result.benchmarks[0].per_scheduler[s].ratios, direct.per_scheduler[s].ratios);
  }
}

TEST(ExperimentRun, ScheduleModeMatchesDirectConstruction) {
  ExperimentSpec spec;
  spec.mode = Mode::kSchedule;
  spec.schedulers = {"HEFT", "ga?pop=8&gens=5"};
  spec.instance.dataset = "blast";
  spec.seed = 42;
  std::ostringstream sink;
  const auto result = exp::run_experiment(spec, sink);
  ASSERT_EQ(result.schedules.size(), 2u);

  const auto inst = datasets::generate_instance("blast", 42, 0);
  EXPECT_EQ(result.schedules[0].makespan, make_scheduler("HEFT")->schedule(inst).makespan());
  EXPECT_TRUE(result.schedules[0].schedule.validate(inst).ok);
  EXPECT_TRUE(result.schedules[1].schedule.validate(inst).ok);
}

TEST(ExperimentRun, PairwiseBestInstancesReproduceTheirRatios) {
  const ExperimentSpec spec = small_pisa_spec();
  std::ostringstream sink;
  const auto result = exp::run_experiment(spec, sink);
  const auto& grid = result.pairwise;
  for (std::size_t row = 0; row < grid.ratio.size(); ++row) {
    for (std::size_t col = 0; col < grid.ratio.size(); ++col) {
      if (row == col || !std::isfinite(grid.ratio[row][col])) continue;
      // Deterministic schedulers: re-running on the stored instance must
      // reproduce the recorded worst-case ratio.
      const auto target = make_scheduler(grid.scheduler_names[col]);
      const auto baseline = make_scheduler(grid.scheduler_names[row]);
      const double target_makespan =
          target->schedule(grid.best_instance[row][col]).makespan();
      const double baseline_makespan =
          baseline->schedule(grid.best_instance[row][col]).makespan();
      EXPECT_NEAR(grid.ratio[row][col], target_makespan / baseline_makespan, 1e-9);
    }
  }
}

}  // namespace
