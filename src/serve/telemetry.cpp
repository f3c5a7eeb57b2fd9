#include "serve/telemetry.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace saga::serve {

namespace {

constexpr std::array<std::string_view, kEndpointCount> kEndpointNames = {
    "schedule", "compare", "metrics", "healthz", "other"};

constexpr std::array<std::string_view, 3> kStatusClasses = {"2xx", "4xx", "5xx"};

/// 2xx -> 0, 4xx -> 1, everything else (including 5xx) -> 2. 3xx/1xx never
/// leave the handlers, so the collapse loses nothing in practice.
std::size_t status_class_index(int status) {
  if (status >= 200 && status < 300) return 0;
  if (status >= 400 && status < 500) return 1;
  return 2;
}

#if defined(__GNUC__)
void append(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
#endif
void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string_view to_string(Endpoint endpoint) {
  return kEndpointNames[static_cast<std::size_t>(endpoint)];
}

void Telemetry::record_request(Endpoint endpoint, int status, double latency_us) {
  by_endpoint_status_[static_cast<std::size_t>(endpoint)][status_class_index(status)].fetch_add(
      1, std::memory_order_relaxed);
  latency_us_.record(latency_us);
}

void Telemetry::record_arena(bool warm) {
  (warm ? arena_hits_ : arena_misses_).fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Telemetry::requests_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& row : by_endpoint_status_) {
    for (const auto& cell : row) total += cell.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Telemetry::requests(Endpoint endpoint) const noexcept {
  std::uint64_t total = 0;
  for (const auto& cell : by_endpoint_status_[static_cast<std::size_t>(endpoint)]) {
    total += cell.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Telemetry::requests(Endpoint endpoint, int status_class) const noexcept {
  return by_endpoint_status_[static_cast<std::size_t>(endpoint)]
                            [status_class_index(status_class * 100)]
                                .load(std::memory_order_relaxed);
}

std::uint64_t Telemetry::arena_hits() const noexcept {
  return arena_hits_.load(std::memory_order_relaxed);
}

std::uint64_t Telemetry::arena_misses() const noexcept {
  return arena_misses_.load(std::memory_order_relaxed);
}

std::string Telemetry::render_prometheus(const Gauges& gauges) const {
  std::string out;
  out.reserve(4096);

  out += "# HELP saga_requests_total Requests handled, by endpoint and status class.\n";
  out += "# TYPE saga_requests_total counter\n";
  append(out, "saga_requests_total %llu\n",
         static_cast<unsigned long long>(requests_total()));
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    for (std::size_t s = 0; s < kStatusClasses.size(); ++s) {
      const std::uint64_t n = by_endpoint_status_[e][s].load(std::memory_order_relaxed);
      if (n == 0) continue;  // Prometheus treats absent series as zero
      append(out, "saga_requests_total{endpoint=\"%.*s\",status=\"%.*s\"} %llu\n",
             static_cast<int>(kEndpointNames[e].size()), kEndpointNames[e].data(),
             static_cast<int>(kStatusClasses[s].size()), kStatusClasses[s].data(),
             static_cast<unsigned long long>(n));
    }
  }

  out += "# HELP saga_request_latency_us Handler latency in microseconds.\n";
  out += "# TYPE saga_request_latency_us histogram\n";
  const auto counts = latency_us_.counts();
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < latency_us_.bounds().size(); ++i) {
    cumulative += counts[i];
    append(out, "saga_request_latency_us_bucket{le=\"%s\"} %llu\n",
           format_value(latency_us_.bounds()[i]).c_str(),
           static_cast<unsigned long long>(cumulative));
  }
  cumulative += counts.back();
  append(out, "saga_request_latency_us_bucket{le=\"+Inf\"} %llu\n",
         static_cast<unsigned long long>(cumulative));
  append(out, "saga_request_latency_us_sum %s\n", format_value(latency_us_.sum()).c_str());
  append(out, "saga_request_latency_us_count %llu\n",
         static_cast<unsigned long long>(cumulative));

  out += "# HELP saga_request_latency_p_us Latency percentiles (bucket upper bounds).\n";
  out += "# TYPE saga_request_latency_p_us gauge\n";
  for (const auto& [label, p] :
       {std::pair<const char*, double>{"50", 0.5}, {"90", 0.9}, {"99", 0.99}}) {
    append(out, "saga_request_latency_p_us{p=\"%s\"} %s\n", label,
           format_value(latency_us_.percentile(p)).c_str());
  }

  out += "# HELP saga_arena_reuse_total Warm TimelineArena reuse on the request path.\n";
  out += "# TYPE saga_arena_reuse_total counter\n";
  append(out, "saga_arena_reuse_total{kind=\"hit\"} %llu\n",
         static_cast<unsigned long long>(arena_hits()));
  append(out, "saga_arena_reuse_total{kind=\"miss\"} %llu\n",
         static_cast<unsigned long long>(arena_misses()));

  out += "# HELP saga_queue_depth Connections queued for a worker thread.\n";
  out += "# TYPE saga_queue_depth gauge\n";
  append(out, "saga_queue_depth %zu\n", gauges.queue_depth);
  out += "# HELP saga_inflight_requests Requests currently being handled.\n";
  out += "# TYPE saga_inflight_requests gauge\n";
  append(out, "saga_inflight_requests %zu\n", gauges.inflight);
  out += "# HELP saga_pool_jobs_completed_total Worker-pool jobs picked up since start.\n";
  out += "# TYPE saga_pool_jobs_completed_total counter\n";
  append(out, "saga_pool_jobs_completed_total %llu\n",
         static_cast<unsigned long long>(gauges.jobs_completed));
  out += "# HELP saga_connections_total TCP connections accepted since start.\n";
  out += "# TYPE saga_connections_total counter\n";
  append(out, "saga_connections_total %llu\n",
         static_cast<unsigned long long>(gauges.connections));
  out += "# HELP saga_uptime_seconds Seconds since the daemon started.\n";
  out += "# TYPE saga_uptime_seconds gauge\n";
  append(out, "saga_uptime_seconds %.3f\n", gauges.uptime_seconds);

  out += "# HELP saga_admission_shed_total Requests shed with 429 by admission control.\n";
  out += "# TYPE saga_admission_shed_total counter\n";
  append(out, "saga_admission_shed_total %llu\n",
         static_cast<unsigned long long>(gauges.admission_shed));

  return out;
}

}  // namespace saga::serve
