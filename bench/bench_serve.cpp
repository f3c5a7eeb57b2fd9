/// Daemon throughput microbenchmark (plain chrono, no Google Benchmark, so
/// it always builds). Drives the scheduler-as-a-service request path on the
/// tiny Fig. 1 instance three ways:
///   1. in-process: ScheduleService::handle called directly (no sockets),
///      single-threaded and with 4 concurrent callers — the ceiling of the
///      dispatch + codec + warm-arena pipeline, and
///   2. HTTP loopback: a real HttpServer on 127.0.0.1 with 4 workers,
///      4 keep-alive HttpClients hammering POST /v1/schedule — the number a
///      deployment actually sees, and
///   3. overload: an always-shedding AdmissionController, measuring the
///      429 fast path an overloaded daemon serves instead of scheduling.
///
/// Latencies are stamped into the same FixedHistogram ladder the daemon's
/// /metrics endpoint uses, so the p50/p90/p99 here and the telemetry
/// percentiles are directly comparable. Results are written to
/// BENCH_serve.json (or argv[1]); the committed copy at the repo root tracks
/// the req/sec trajectory across PRs. --smoke cuts the request counts for
/// CI-sized runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "exp/json.hpp"
#include "graph/problem_instance.hpp"
#include "serve/admission.hpp"
#include "serve/codec.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

namespace {

using namespace saga;
using exp::Json;
using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

struct PhaseResult {
  std::string name;
  std::size_t threads = 0;
  std::uint64_t requests = 0;
  double req_per_sec = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// Runs `per_thread` requests on each of `threads` callers, stamping
/// per-request latency; `issue` must be safe to call concurrently.
template <typename Issue>
PhaseResult run_phase(const std::string& name, std::size_t threads, std::uint64_t per_thread,
                      const Issue& issue) {
  FixedHistogram latency = FixedHistogram::latency_us();
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const auto begin = Clock::now();
        issue();
        latency.record(micros_since(begin));
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_sec = micros_since(start) / 1e6;

  PhaseResult r;
  r.name = name;
  r.threads = threads;
  r.requests = latency.count();
  r.req_per_sec = static_cast<double>(r.requests) / elapsed_sec;
  r.p50_us = latency.percentile(0.50);
  r.p90_us = latency.percentile(0.90);
  r.p99_us = latency.percentile(0.99);
  std::fprintf(stderr, "%-22s %zu thread(s)  %8.0f req/sec  p50 %5.0f us  p90 %5.0f us  p99 %5.0f us\n",
               r.name.c_str(), r.threads, r.req_per_sec, r.p50_us, r.p90_us, r.p99_us);
  return r;
}

void emit_phase(std::FILE* out, const PhaseResult& r, bool last) {
  std::fprintf(out,
               "    {\"name\": \"%s\", \"threads\": %zu, \"requests\": %llu, "
               "\"req_per_sec\": %.0f, \"p50_us\": %.0f, \"p90_us\": %.0f, \"p99_us\": %.0f}%s\n",
               r.name.c_str(), r.threads, static_cast<unsigned long long>(r.requests),
               r.req_per_sec, r.p50_us, r.p90_us, r.p99_us, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  // bench_serve [out.json] [--smoke]
  std::string out_path = "BENCH_serve.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  bench::banner("bench_serve", "saga serve request path (dispatch + codec + warm arena)");
  bench::ScopedTimer timer("bench_serve total");

  const ProblemInstance inst = fig1_instance();
  const std::string body = Json::object({{"scheduler", Json::string("HEFT")},
                                         {"instance", serve::instance_to_json(inst)}})
                               .dump();
  const std::uint64_t per_thread = smoke ? 200 : 5000;

  std::vector<PhaseResult> phases;

  {
    serve::ScheduleService service;
    serve::HttpRequest req;
    req.method = "POST";
    req.target = "/v1/schedule";
    req.body = body;
    const auto issue = [&] { (void)service.handle(req); };
    // Warm the per-thread arenas out of the measurement window.
    issue();
    phases.push_back(run_phase("in_process", 1, per_thread, issue));
    phases.push_back(run_phase("in_process", 4, per_thread, issue));
  }

  {
    serve::ScheduleService service;
    serve::HttpServer::Options options;
    options.port = 0;
    options.threads = 4;
    serve::HttpServer server(
        options, [&service](const serve::HttpRequest& req) { return service.handle(req); });
    const std::uint16_t port = server.port();
    // One keep-alive connection per benchmark thread.
    const auto issue = [&] {
      thread_local serve::HttpClient conn(port);
      const serve::HttpResponse resp = conn.request("POST", "/v1/schedule", body);
      if (resp.status != 200) {
        std::fprintf(stderr, "unexpected status %d: %s\n", resp.status, resp.body.c_str());
        std::exit(1);
      }
    };
    phases.push_back(run_phase("http_loopback", 4, per_thread, issue));
  }

  {
    // overload: every request is shed — a synthetic gauge sampler reports a
    // queue permanently over max-queue — so this measures the 429 fast path
    // (admission decision + canned body + Retry-After derivation) that an
    // overloaded daemon serves instead of scheduling work.
    serve::AdmissionController::Limits limits;
    limits.max_queue = 1;
    serve::AdmissionController admission(limits);
    admission.record_service_us(50.0);  // give Retry-After a p50 to derive from
    serve::ScheduleService::Options service_options;
    service_options.admission = &admission;
    serve::ScheduleService service(service_options);
    service.set_gauge_sampler([] {
      serve::Telemetry::Gauges gauges;
      gauges.queue_depth = 64;
      return gauges;
    });
    serve::HttpRequest req;
    req.method = "POST";
    req.target = "/v1/schedule";
    req.body = body;
    const auto issue = [&] {
      const serve::HttpResponse resp = service.handle(req);
      if (resp.status != 429) {
        std::fprintf(stderr, "expected 429, got %d: %s\n", resp.status, resp.body.c_str());
        std::exit(1);
      }
    };
    phases.push_back(run_phase("overload", 4, per_thread, issue));
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"serve\",\n");
  std::fprintf(out, "  \"instance\": {\"tasks\": %zu, \"nodes\": %zu, \"kind\": \"fig1\"},\n",
               inst.graph.task_count(), inst.network.node_count());
  std::fprintf(out, "  \"scheduler\": \"HEFT\",\n");
  std::fprintf(out, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    emit_phase(out, phases[i], i + 1 == phases.size());
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
