#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file tool.hpp
/// Subcommands of perfbench_tool, the benchmark's helper binary.

namespace perfbench {

/// One HTTP request of a bodies file.
struct Request {
  bool open_loop = false;  // loadgen phase
  std::string path;
  std::string body;
};

/// Reads a bodies file: one `<closed|open>\t<path>\t<json body>` line per
/// request, at least one.
std::vector<Request> load_requests(const std::string& bodies_path);

/// Replays the `saga run` of `spec_path` in process with every layer call
/// timed (see trace.hpp), writing the spec's own csv/json/atlas sinks, the
/// result store `store_dir` and the span report.
int run_traced_spec(const std::string& spec_path, const std::string& report_path,
                    const std::string& store_dir);

/// Calls ScheduleService::handle once on every request of `bodies_path`
/// and writes one `<status> <fnv1a64 hex of the body>` line per request.
/// With a report path the calls are traced and each request is also
/// replayed stage by stage (parse, decode or generate, plan, encode).
int run_handle(const std::string& bodies_path, const std::string& digests_path,
               const std::string& report_path);

struct LoadOptions {
  std::uint16_t port = 0;
  std::string bodies;
  std::size_t connections = 1;
  std::string out;  // result JSON; .before.prom/.after.prom beside it
};

/// HTTP load generator: sends every request of the bodies file once, in
/// file order, the closed-loop ones first on keep-alive connections, then
/// the open-loop ones at kOpenRate (loadgen.cpp), each timed from when it
/// was due. Scrapes /metrics before and after.
int run_loadgen(const LoadOptions& options);

}  // namespace perfbench
