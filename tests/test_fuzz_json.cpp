// Seeded mutation fuzzer for exp::Json::parse, the decoder behind spec
// files, sim scenarios and every saga serve request body. Starting from a
// corpus of real documents (the checked-in example specs and wire-codec
// output), each iteration applies a few byte flips, inserts, deletes and
// truncations and checks that the parser either rejects the input with its
// positioned std::runtime_error or accepts it and re-dumps canonically.
// The iteration budget is fixed, so a run is a pure function of the seed.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "datasets/registry.hpp"
#include "exp/json.hpp"
#include "graph/problem_instance.hpp"
#include "sched/registry.hpp"
#include "serve/codec.hpp"

namespace saga {
namespace {

using exp::Json;

constexpr std::size_t kIterations = 100000;
constexpr std::string_view kErrorPrefix = "json parse error at line ";
// Bytes that steer the parser into its branches more often than random ones.
constexpr std::string_view kDictionary = "{}[],:\"\\/0123456789.eE+-tfnulrsabu \t\r\n";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> corpus() {
  std::vector<std::string> docs;
  for (const auto& entry : std::filesystem::directory_iterator(SAGA_SPECS_DIR)) {
    if (entry.path().extension() == ".json") docs.push_back(read_file(entry.path()));
  }
  const ProblemInstance fig1 = fig1_instance();
  const ProblemInstance chains = datasets::generate_instance("chains?length=4", 3, 0);
  docs.push_back(serve::instance_to_json(fig1).dump());
  docs.push_back(serve::instance_to_json(chains).dump(2));
  docs.push_back(serve::schedule_to_json(make_scheduler("HEFT")->schedule(fig1)).dump());
  docs.push_back(
      R"({"s": "a\"b\\c\/\b\f\n\r\té😀", "n": [-0.5e-3, 1E+2, 0, -0, 4.9e-324],)"
      R"( "t": true, "f": false, "z": null, "o": {}, "a": [[]]})");
  return docs;
}

std::uint8_t random_byte(Rng& rng) {
  if (rng.bernoulli(0.7)) {
    return static_cast<std::uint8_t>(kDictionary[rng.index(kDictionary.size())]);
  }
  return static_cast<std::uint8_t>(rng.index(256));
}

void mutate(std::string& doc, Rng& rng) {
  const std::size_t at = doc.empty() ? 0 : rng.index(doc.size());
  switch (rng.index(4)) {
    case 0:  // flip one bit
      if (!doc.empty()) doc[at] = static_cast<char>(doc[at] ^ (1 << rng.index(8)));
      break;
    case 1:  // insert a byte
      doc.insert(at, 1, static_cast<char>(random_byte(rng)));
      break;
    case 2:  // delete a short run
      if (!doc.empty()) doc.erase(at, 1 + rng.index(4));
      break;
    default:  // truncate
      doc.resize(at);
  }
}

TEST(FuzzJson, MutatedDocumentsAreRejectedWithPositionsOrRedumpCanonically) {
  const std::vector<std::string> docs = corpus();
  ASSERT_GE(docs.size(), 8u);
  Rng rng(20260415);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t iteration = 0; iteration < kIterations; ++iteration) {
    std::string input = docs[rng.index(docs.size())];
    for (std::size_t m = 1 + rng.index(4); m > 0; --m) mutate(input, rng);
    const auto context = [&] {
      return "iteration " + std::to_string(iteration) + ", input " +
             ::testing::PrintToString(input);
    };
    Json doc;
    try {
      doc = Json::parse(input);
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string_view(e.what()).substr(0, kErrorPrefix.size()), kErrorPrefix)
          << e.what() << "; " << context();
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "rejected with an exception that is not std::runtime_error: " << e.what()
             << "; " << context();
    }
    ++accepted;
    const std::string once = doc.dump();
    ASSERT_EQ(Json::parse(once).dump(), once) << context();
    ASSERT_EQ(Json::parse(doc.dump(2)).dump(), once) << context();
  }
  // Both outcomes are exercised; the corpus is not all dead ends.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
}

TEST(FuzzJson, CorpusParsesAndRedumpsCanonically) {
  for (const std::string& text : corpus()) {
    const std::string once = Json::parse(text).dump();
    EXPECT_EQ(Json::parse(once).dump(), once);
  }
}

}  // namespace
}  // namespace saga
