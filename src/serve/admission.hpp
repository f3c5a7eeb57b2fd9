#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "serve/http.hpp"

/// \file admission.hpp
/// Admission control / backpressure for the `saga serve` daemon. Without
/// it the daemon accepts unbounded work: a burst of connections simply
/// piles onto the worker pool's queue while `saga_queue_depth` climbs and
/// every queued client waits the full backlog out. The AdmissionController
/// caps that backlog: schedule/compare requests arriving while the queue
/// (or the in-flight count) is over its limit are shed with a
/// deterministic `429 Too Many Requests` body plus a `Retry-After` header
/// derived from the observed p50 service time and the current backlog —
/// clients learn to back off instead of timing out.
///
/// Contract:
///   - The 429 *body* is a fixed string (`shed_body()`), so overload
///     responses are byte-identical and pinnable; everything load-derived
///     travels in the `Retry-After` header.
///   - `/healthz` and `/metrics` are never shed (`exempt_target`), so
///     liveness probes and Prometheus scrapes survive overload.
///   - A limit of 0 means unlimited (that axis never sheds).
///
/// Two layers consult one controller:
///   - ScheduleService::handle sheds per request (path-aware, telemetry
///     recorded) using the daemon's sampled queue-depth/in-flight gauges.
///   - HttpServer's accept loop uses the ThreadPool::try_submit seam as a
///     coarse connection-count backstop (`Options::max_pending`) and
///     answers the same canned 429 best-effort before closing. That layer
///     is path-blind memory protection; it is sized well above max_queue
///     (`Limits::accept_backstop`) so the path-aware layer always engages
///     first.
///
/// Thread-safety: all members are atomics or the lock-free FixedHistogram;
/// every method is safe to call concurrently from request handlers.

namespace saga::serve {

class AdmissionController {
 public:
  struct Limits {
    /// Shed when the sampled worker-queue depth exceeds this (0 = unlimited).
    std::size_t max_queue = 0;
    /// Shed when the sampled in-flight request count exceeds this
    /// (0 = unlimited). The sample includes the request being decided, so
    /// `max_inflight = M` admits at most M concurrent handlers.
    std::size_t max_inflight = 0;

    /// Size of the accept-level backstop (HttpServer::Options::max_pending)
    /// for these limits: 8 x max_queue with a floor of 64, saturating at
    /// SIZE_MAX rather than wrapping; 0 (no backstop) when max_queue is
    /// unlimited.
    [[nodiscard]] std::size_t accept_backstop() const noexcept {
      constexpr std::size_t kFactor = 8;
      if (max_queue == 0) return 0;
      if (max_queue > std::numeric_limits<std::size_t>::max() / kFactor) {
        return std::numeric_limits<std::size_t>::max();
      }
      return std::max<std::size_t>(64, kFactor * max_queue);
    }
  };

  explicit AdmissionController(const Limits& limits) : limits_(limits) {}

  [[nodiscard]] const Limits& limits() const noexcept { return limits_; }

  /// Endpoints that must never be shed: scrapes and liveness probes have
  /// to succeed precisely when the daemon is overloaded.
  [[nodiscard]] static bool exempt_target(std::string_view target) noexcept {
    return target == "/healthz" || target == "/metrics";
  }

  /// Pure admission decision against a load snapshot.
  [[nodiscard]] bool admit(std::size_t queued, std::size_t inflight) const noexcept {
    if (limits_.max_queue != 0 && queued > limits_.max_queue) return false;
    if (limits_.max_inflight != 0 && inflight > limits_.max_inflight) return false;
    return true;
  }

  /// Feeds the Retry-After estimate with one observed handler service time
  /// (successful schedule/compare requests only, so shed fast-paths never
  /// drag the estimate toward zero).
  void record_service_us(double us) noexcept { service_us_.record(us); }

  /// Whole seconds a shed client should wait: the observed p50 service
  /// time times the work ahead of it (backlog + itself), clamped to
  /// [1, 60]. Before any observation exists the estimate is 1 second.
  [[nodiscard]] int retry_after_seconds(std::size_t queued, std::size_t inflight) const noexcept;

  /// The deterministic shed payload: status 429, `shed_body()`, and a
  /// `Retry-After` header for the given load snapshot. Counts the shed.
  [[nodiscard]] HttpResponse shed_response(std::size_t queued, std::size_t inflight);

  /// The fixed 429 body every shed answer carries, newline-terminated
  /// valid JSON. Deterministic by design: tests and clients may pin it.
  [[nodiscard]] static const std::string& shed_body();

  /// Requests (and backstop connections) shed so far.
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    // Relaxed: a monotonic counter written by atomic RMWs — individually
    // exact, never used to prove cross-thread ordering.
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// Observed service-time distribution (the Retry-After input).
  [[nodiscard]] const FixedHistogram& service_time() const noexcept { return service_us_; }

 private:
  Limits limits_;
  FixedHistogram service_us_{FixedHistogram::latency_us()};
  std::atomic<std::uint64_t> shed_total_{0};
};

}  // namespace saga::serve
