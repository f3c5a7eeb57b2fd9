/// perfbench_tool: helper binary of the saga benchmark (perfbench/run.py).
///
///   perfbench_tool traced <spec.json> <report.json> <store-dir>
///   perfbench_tool handle <bodies.tsv> <digests.txt> [--report path]
///   perfbench_tool loadgen --port P --bodies F --connections C --out F

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "tool.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench_tool traced <spec.json> <report.json> <store-dir>\n"
    "       perfbench_tool handle <bodies.tsv> <digests.txt> [--report path]\n"
    "       perfbench_tool loadgen --port P --bodies F --connections C --out F\n";

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Flag parser over argv[first..argc): positional arguments in order, each
/// `--name value` pair handed to `on_flag`.
template <typename OnFlag>
std::vector<std::string> parse(int argc, char** argv, int first, OnFlag on_flag) {
  std::vector<std::string> positional;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      on_flag(arg, std::string(argv[++i]));
    } else {
      positional.push_back(arg);
    }
  }
  return positional;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) throw UsageError("missing subcommand");
  const std::string command = argv[1];
  if (command == "traced") {
    const auto args = parse(argc, argv, 2, [&](const std::string& flag, const std::string&) {
      throw UsageError("unknown flag " + flag);
    });
    if (args.size() != 3) throw UsageError("traced needs <spec.json> <report.json> <store-dir>");
    return perfbench::run_traced_spec(args[0], args[1], args[2]);
  }
  if (command == "handle") {
    std::string report;
    const auto args = parse(argc, argv, 2, [&](const std::string& flag, const std::string& value) {
      if (flag != "--report") throw UsageError("unknown flag " + flag);
      report = value;
    });
    if (args.size() != 2) throw UsageError("handle needs <bodies> <digests>");
    return perfbench::run_handle(args[0], args[1], report);
  }
  if (command == "loadgen") {
    perfbench::LoadOptions options;
    const auto args = parse(argc, argv, 2, [&](const std::string& flag, const std::string& value) {
      if (flag == "--port") {
        options.port = static_cast<std::uint16_t>(std::stoul(value));
      } else if (flag == "--bodies") {
        options.bodies = value;
      } else if (flag == "--connections") {
        options.connections = std::stoul(value);
      } else if (flag == "--out") {
        options.out = value;
      } else {
        throw UsageError("unknown flag " + flag);
      }
    });
    if (!args.empty() || options.port == 0 || options.bodies.empty() || options.out.empty() ||
        options.connections == 0) {
      throw UsageError("loadgen needs --port, --bodies, --connections and --out");
    }
    return perfbench::run_loadgen(options);
  }
  throw UsageError("unknown subcommand " + command);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench_tool: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool: %s\n", e.what());
    return 1;
  }
}
