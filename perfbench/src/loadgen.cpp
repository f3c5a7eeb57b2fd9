#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "serve/http.hpp"
#include "tool.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using saga::serve::HttpClient;
using saga::serve::HttpResponse;

constexpr double kOpenRate = 600.0;  // requests per second, under a tenth of capacity

struct Sample {
  std::size_t body = 0;
  int status = 0;               // 0 = transport error
  std::int64_t latency_ns = 0;  // closed: round trip; open: from the due time
  std::int64_t late_ns = 0;     // open: send time minus due time
  std::string server_us;        // X-Saga-Timing-Us, empty when absent
  std::string digest;           // fnv1a64 of the (de-chunked) body
};

/// One connection's request loop. `next` hands out the phase's request
/// numbers across connections; request k sends `requests[ids[k]]` at
/// `due_ns(k)` (0 = at once).
template <typename DueFn>
void connection_loop(std::uint16_t port, const std::vector<Request>& requests,
                     const std::vector<std::size_t>& ids, std::atomic<std::size_t>& next,
                     DueFn due_ns, std::vector<Sample>& out) {
  std::unique_ptr<HttpClient> client;
  for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed); k < ids.size();
       k = next.fetch_add(1, std::memory_order_relaxed)) {
    Sample sample;
    sample.body = ids[k];
    const std::int64_t due = due_ns(k);
    if (due != 0) std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    const std::int64_t sent = now_ns();
    try {
      if (!client) client = std::make_unique<HttpClient>(port);
      HttpResponse resp =
          client->request("POST", requests[sample.body].path, requests[sample.body].body);
      sample.status = resp.status;
      for (const auto& [name, value] : resp.headers) {
        if (name == "x-saga-timing-us") sample.server_us = value;
      }
      sample.digest = saga::hash_hex(saga::fnv1a64(resp.body));
    } catch (const std::exception&) {
      client.reset();  // reconnect on the next request
    }
    const std::int64_t done = now_ns();
    sample.latency_ns = done - (due != 0 ? due : sent);
    sample.late_ns = due != 0 ? sent - due : 0;
    out.push_back(std::move(sample));
  }
}

/// Sends the requests `ids` over `connections` threads; returns the
/// samples and the phase's elapsed time.
template <typename DueFn>
std::vector<Sample> phase(const LoadOptions& options, const std::vector<Request>& requests,
                          const std::vector<std::size_t>& ids, DueFn due_ns,
                          std::int64_t& elapsed_ns) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per_connection(options.connections);
  const std::int64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < options.connections; ++c) {
      threads.emplace_back([&, c] {
        connection_loop(options.port, requests, ids, next, due_ns, per_connection[c]);
      });
    }
  }
  elapsed_ns = now_ns() - start;
  std::vector<Sample> samples;
  for (auto& part : per_connection) {
    for (auto& sample : part) samples.push_back(std::move(sample));
  }
  return samples;
}

void write_samples(std::ostream& out, const std::vector<Sample>& samples) {
  out << "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << (i == 0 ? "\n" : ",\n") << '[' << s.body << ", " << s.status << ", " << s.latency_ns
        << ", " << s.late_ns << ", \"" << s.server_us << "\", \"" << s.digest << "\"]";
  }
  out << "]";
}

void scrape(std::uint16_t port, const std::string& path) {
  const HttpResponse resp = HttpClient::fetch(port, "GET", "/metrics");
  if (resp.status != 200) throw std::runtime_error("/metrics answered " + std::to_string(resp.status));
  std::ofstream out(path);
  out << resp.body;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::vector<Request> load_requests(const std::string& bodies_path) {
  std::ifstream in(bodies_path);
  if (!in) throw std::runtime_error("cannot open bodies file " + bodies_path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find('\t');
    const auto second = first == std::string::npos ? first : line.find('\t', first + 1);
    const std::string phase = line.substr(0, first);
    if (second == std::string::npos || (phase != "closed" && phase != "open")) {
      throw std::runtime_error("bodies line is not <closed|open>\\t<path>\\t<body>");
    }
    requests.push_back(
        {phase == "open", line.substr(first + 1, second - first - 1), line.substr(second + 1)});
  }
  if (requests.empty()) throw std::runtime_error("no request bodies in " + bodies_path);
  return requests;
}

int run_loadgen(const LoadOptions& options) {
  const std::vector<Request> requests = load_requests(options.bodies);
  std::vector<std::size_t> closed_ids;
  std::vector<std::size_t> open_ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    (requests[i].open_loop ? open_ids : closed_ids).push_back(i);
  }
  if (closed_ids.empty() || open_ids.empty()) {
    throw std::runtime_error("loadgen needs closed-loop and open-loop requests");
  }
  scrape(options.port, options.out + ".before.prom");

  std::int64_t closed_ns = 0;
  const auto closed = phase(options, requests, closed_ids,
                            [](std::size_t) -> std::int64_t { return 0; }, closed_ns);

  const std::int64_t base = now_ns() + 5'000'000;
  const double gap_ns = 1e9 / kOpenRate;
  std::int64_t open_ns = 0;
  const auto open = phase(
      options, requests, open_ids,
      [&](std::size_t k) { return base + static_cast<std::int64_t>(gap_ns * static_cast<double>(k)); },
      open_ns);

  scrape(options.port, options.out + ".after.prom");
  std::ofstream out(options.out);
  if (!out) throw std::runtime_error("cannot write " + options.out);
  out << "{\"closed\": {\"elapsed_ns\": " << closed_ns << ", \"samples\": ";
  write_samples(out, closed);
  out << "},\n\"open\": {\"elapsed_ns\": " << open_ns << ", \"rate\": " << kOpenRate
      << ", \"samples\": ";
  write_samples(out, open);
  out << "}}\n";
  if (!out) throw std::runtime_error("short write to " + options.out);
  return 0;
}

}  // namespace perfbench
