#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/http.hpp"
#include "serve/telemetry.hpp"

/// \file service.hpp
/// Request routing and handlers for the `saga serve` daemon. A
/// ScheduleService turns HttpRequests into HttpResponses:
///
///   POST /v1/schedule   run one scheduler on one instance
///   POST /v1/compare    run several schedulers on one instance
///   GET  /metrics       Prometheus text exposition (serve/telemetry)
///   GET  /healthz       liveness probe
///
/// Request body for the POST endpoints (application/json):
///
///   {"scheduler": "heft",            // /v1/schedule: one spec string
///    "schedulers": ["heft", "cpop"], // /v1/compare: spec strings, in order
///    "instance": { ... },            // wire-codec instance (serve/codec), OR
///    "dataset": "chains?n=10",       // dataset spec string...
///    "index": 3,                     // ...with a stream index (default 0)
///    "seed": 42,                     // master seed for dataset generation
///                                    // and randomized schedulers (default 0)
///    "timings": true}                // opt in to a timing_us field (below)
///
/// Exactly one of "instance" and "dataset" must be present. Responses are
/// deterministic: identical request bodies produce byte-identical response
/// bodies regardless of which worker served them or what ran before —
/// wall-clock timings therefore travel in the `X-Saga-Timing-Us` response
/// header, not the body. `"timings": true` additionally embeds a
/// `timing_us` object in the body for clients that want machine-readable
/// timings and accept that it breaks byte-identity.
///
/// Error contract: malformed JSON, schema violations, and unknown
/// scheduler/dataset names return 400 with the underlying diagnostic
/// (including the registries' did-you-mean suggestions); unknown paths
/// return 404 with a nearest-path suggestion; wrong methods return 405
/// with an Allow header. All error bodies are `{"error": "..."}`. The
/// daemon stays up in every case.
///
/// Each worker thread holds its own warm TimelineArena (thread-local,
/// reused across requests), so steady-state scheduling is allocation-free;
/// reuse is visible as saga_arena_reuse_total in /metrics.

namespace saga {

class TimelineArena;

namespace serve {

class ScheduleService {
 public:
  struct Options {
    /// Shared admission controller; null admits everything. Not owned and
    /// must outlive the service. Only /v1/schedule and /v1/compare are
    /// subject to shedding — /metrics, /healthz, and error paths are
    /// structurally exempt (they never reach the admission check).
    AdmissionController* admission = nullptr;
    /// /v1/compare rosters with at least this many schedulers stream their
    /// response as Transfer-Encoding: chunked, one row per chunk (the
    /// de-chunked bytes equal the buffered body exactly). Smaller rosters
    /// — and any `"timings": true` request — stay buffered. 0 disables.
    std::size_t stream_rows_threshold = 8;
  };

  ScheduleService();
  explicit ScheduleService(const Options& options);

  /// Handles one request; never throws. Records endpoint, status class, and
  /// handler latency in telemetry(). Thread-safe: called concurrently from
  /// every worker.
  [[nodiscard]] HttpResponse handle(const HttpRequest& req);

  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }

  /// Supplies the point-in-time gauges /metrics reports (queue depth,
  /// in-flight requests, pool jobs, connections). The daemon wires this to
  /// its HttpServer; unset, those gauges read zero. The service fills
  /// uptime itself.
  ///
  /// Concurrency contract: gauge_sampler_ is a plain (non-atomic) member,
  /// so this must be called before the HttpServer that dispatches into
  /// handle() starts — i.e. during daemon setup, single-threaded. The
  /// HttpServer constructor's thread creation then publishes the value to
  /// every worker. Calling it while requests are in flight is a data race.
  using GaugeSampler = std::function<Telemetry::Gauges()>;
  void set_gauge_sampler(GaugeSampler sampler) { gauge_sampler_ = std::move(sampler); }

  [[nodiscard]] double uptime_seconds() const;

 private:
  [[nodiscard]] HttpResponse route(const HttpRequest& req, Endpoint endpoint);
  [[nodiscard]] HttpResponse handle_schedule(const HttpRequest& req);
  [[nodiscard]] HttpResponse handle_compare(const HttpRequest& req);
  [[nodiscard]] HttpResponse handle_metrics();

  /// This thread's warm arena for this service; `warm` reports whether it
  /// already existed (telemetry's arena-reuse hit).
  [[nodiscard]] TimelineArena& thread_arena(bool& warm);

  Options options_;
  Telemetry telemetry_;
  GaugeSampler gauge_sampler_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t serial_;  // distinguishes services sharing one thread's cache
};

}  // namespace serve
}  // namespace saga
