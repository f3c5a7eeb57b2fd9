#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/nearest.hpp"
#include "datasets/registry.hpp"
#include "exp/json.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "serve/admission.hpp"
#include "serve/codec.hpp"

namespace saga::serve {

namespace {

using exp::Json;
using exp::check_keys;
using exp::JsonArray;

/// A request the client got wrong (vs. a bug in us): decoding failures are
/// wrapped in this so the router can map them to 400 instead of 500.
struct BadRequest : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs the decode phase of a handler; any exception it throws (JSON parse
/// errors, schema violations, unknown registry names) becomes a 400.
template <typename F>
auto decode(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const BadRequest&) {
    throw;
  } catch (const std::exception& e) {
    throw BadRequest(e.what());
  }
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = Json::object({{"error", Json::string(message)}}).dump() + "\n";
  return resp;
}

const std::vector<std::string>& known_paths() {
  static const std::vector<std::string> paths = {"/v1/schedule", "/v1/compare", "/metrics",
                                                 "/healthz"};
  return paths;
}

Endpoint classify(const std::string& target) {
  if (target == "/v1/schedule") return Endpoint::kSchedule;
  if (target == "/v1/compare") return Endpoint::kCompare;
  if (target == "/metrics") return Endpoint::kMetrics;
  if (target == "/healthz") return Endpoint::kHealthz;
  return Endpoint::kOther;
}

Json parse_body(const HttpRequest& req, const std::vector<std::string>& allowed,
                const std::string& context) {
  if (req.body.empty()) {
    throw BadRequest(context + " needs a JSON request body");
  }
  Json body = decode([&] { return Json::parse(req.body); });
  if (!body.is_object()) {
    throw BadRequest(context + " body must be a JSON object");
  }
  decode([&] { check_keys(body, allowed, context); return 0; });
  return body;
}

std::uint64_t seed_of(const Json& body) {
  const Json* seed = body.find("seed");
  return seed == nullptr ? 0 : decode([&] { return seed->as_u64("'seed'"); });
}

bool timings_of(const Json& body) {
  const Json* timings = body.find("timings");
  return timings != nullptr && decode([&] { return timings->as_bool(); });
}

/// Materializes the request's instance: an inline wire-codec object, or a
/// dataset spec plus stream index through the registry.
ProblemInstance resolve_instance(const Json& body, std::uint64_t seed) {
  const Json* inline_instance = body.find("instance");
  const Json* dataset = body.find("dataset");
  if ((inline_instance != nullptr) == (dataset != nullptr)) {
    throw BadRequest("request needs exactly one of 'instance' and 'dataset'");
  }
  return decode([&] {
    if (inline_instance != nullptr) return instance_from_json(*inline_instance);
    const Json* index = body.find("index");
    const std::size_t i =
        index == nullptr ? 0 : static_cast<std::size_t>(index->as_u64("'index'"));
    return datasets::generate_instance(dataset->as_string(), seed, i);
  });
}

/// Microseconds elapsed since `from`, as a decimal string with 1ns
/// resolution (for the X-Saga-Timing-Us header).
std::string elapsed_us(std::chrono::steady_clock::time_point from) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - from)
          .count();
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

// Unique-id generator: the relaxed fetch_add is enough because uniqueness
// needs only the atomicity of the RMW, not any cross-thread ordering.
std::atomic<std::uint64_t> next_service_serial{1};

}  // namespace

ScheduleService::ScheduleService() : ScheduleService(Options{}) {}

ScheduleService::ScheduleService(const Options& options)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      serial_(next_service_serial.fetch_add(1, std::memory_order_relaxed)) {}

double ScheduleService::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

TimelineArena& ScheduleService::thread_arena(bool& warm) {
  // Keyed by the service's serial, not `this`: a later service reusing a
  // dead one's address must not inherit its arenas.
  //
  // Concurrency: the cache is thread_local, so the map and every arena in
  // it are owned by exactly one worker thread — no atomics or locks needed,
  // and TSan agrees. The only shared state this function touches is the
  // telemetry counter, which is an atomic RMW. (Iteration order of the map
  // never matters: it is looked up by key only, never serialized.)
  thread_local std::unordered_map<std::uint64_t, std::unique_ptr<TimelineArena>> arenas;
  std::unique_ptr<TimelineArena>& slot = arenas[serial_];
  warm = slot != nullptr;
  if (!warm) slot = std::make_unique<TimelineArena>();
  telemetry_.record_arena(warm);
  return *slot;
}

HttpResponse ScheduleService::handle(const HttpRequest& req) {
  const auto started = std::chrono::steady_clock::now();
  const Endpoint endpoint = classify(req.target);
  const bool workload = endpoint == Endpoint::kSchedule || endpoint == Endpoint::kCompare;

  // Admission control: only the scheduling workload is subject to
  // shedding — /metrics and /healthz classify as their own endpoints and
  // never reach this check, so scrapes and liveness probes survive
  // overload by construction (AdmissionController::exempt_target states
  // the same contract for the accept-level backstop).
  if (workload && options_.admission != nullptr) {
    Telemetry::Gauges load;
    if (gauge_sampler_) load = gauge_sampler_();
    if (!options_.admission->admit(load.queue_depth, load.inflight)) {
      HttpResponse shed = options_.admission->shed_response(load.queue_depth, load.inflight);
      // No timing header on the shed fast path: apart from Retry-After the
      // whole answer is deterministic.
      const double latency_us =
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - started)
              .count();
      telemetry_.record_request(endpoint, shed.status, latency_us);
      return shed;
    }
  }

  HttpResponse resp;
  try {
    resp = route(req, endpoint);
  } catch (const BadRequest& e) {
    resp = error_response(400, e.what());
  } catch (const std::exception& e) {
    resp = error_response(500, e.what());
  } catch (...) {
    resp = error_response(500, "unknown internal error");
  }
  if (workload) {
    // Wall-clock timing travels as a header so identical request bodies
    // keep byte-identical response bodies.
    resp.headers.emplace_back("X-Saga-Timing-Us", elapsed_us(started));
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - started)
          .count();
  telemetry_.record_request(endpoint, resp.status, latency_us);
  if (workload && resp.status == 200 && options_.admission != nullptr) {
    // Successful workload requests only: feeding shed fast-paths or error
    // turnarounds into the estimate would drag Retry-After toward zero.
    options_.admission->record_service_us(latency_us);
  }
  return resp;
}

HttpResponse ScheduleService::route(const HttpRequest& req, Endpoint endpoint) {
  const auto method_guard = [&](const char* allow) -> bool {
    return req.method != allow;
  };
  switch (endpoint) {
    case Endpoint::kSchedule:
    case Endpoint::kCompare: {
      if (method_guard("POST")) {
        HttpResponse resp = error_response(405, req.method + " is not supported on " +
                                                    req.target + "; use POST");
        resp.headers.emplace_back("Allow", "POST");
        return resp;
      }
      return endpoint == Endpoint::kSchedule ? handle_schedule(req) : handle_compare(req);
    }
    case Endpoint::kMetrics:
    case Endpoint::kHealthz: {
      if (method_guard("GET")) {
        HttpResponse resp = error_response(405, req.method + " is not supported on " +
                                                    req.target + "; use GET");
        resp.headers.emplace_back("Allow", "GET");
        return resp;
      }
      if (endpoint == Endpoint::kMetrics) return handle_metrics();
      HttpResponse resp;
      resp.body = "{\"status\": \"ok\"}\n";
      return resp;
    }
    case Endpoint::kOther:
      return error_response(404, "unknown path '" + req.target + "'" +
                                     did_you_mean(req.target, known_paths()) +
                                     "; known paths: " + join(known_paths(), ", "));
  }
  return error_response(500, "unroutable request");  // unreachable
}

HttpResponse ScheduleService::handle_schedule(const HttpRequest& req) {
  static const std::vector<std::string> kKeys = {"scheduler", "instance", "dataset",
                                                 "index",     "seed",     "timings"};
  const Json body = parse_body(req, kKeys, "/v1/schedule");
  const std::uint64_t seed = seed_of(body);
  const bool timings = timings_of(body);

  const Json* scheduler_spec = body.find("scheduler");
  if (scheduler_spec == nullptr) {
    throw BadRequest("/v1/schedule needs a 'scheduler' key (a scheduler spec string)");
  }
  const std::string spec = decode([&] { return scheduler_spec->as_string(); });
  const SchedulerPtr scheduler = decode([&] { return SchedulerRegistry::instance().make(spec, seed); });
  const ProblemInstance inst = resolve_instance(body, seed);

  bool warm = false;
  TimelineArena& arena = thread_arena(warm);
  const auto run_started = std::chrono::steady_clock::now();
  const Schedule schedule = scheduler->schedule(inst, &arena);
  const std::string schedule_us = elapsed_us(run_started);

  Json out = Json::object({{"scheduler", Json::string(spec)},
                           {"tasks", Json::number(static_cast<double>(inst.graph.task_count()))},
                           {"nodes", Json::number(static_cast<double>(inst.network.node_count()))},
                           {"makespan", Json::number(schedule.makespan())},
                           {"schedule", schedule_to_json(schedule)}});
  if (timings) {
    // Opt-in and documented as nondeterministic: embedding wall-clock time
    // forfeits byte-identical responses.
    out.set("timing_us", Json::object({{"schedule", Json::string(schedule_us)}}));
  }
  HttpResponse resp;
  resp.body = out.dump() + "\n";
  return resp;
}

HttpResponse ScheduleService::handle_compare(const HttpRequest& req) {
  static const std::vector<std::string> kKeys = {"schedulers", "instance", "dataset",
                                                 "index",      "seed",     "timings"};
  const Json body = parse_body(req, kKeys, "/v1/compare");
  const std::uint64_t seed = seed_of(body);
  const bool timings = timings_of(body);

  const Json* specs = body.find("schedulers");
  if (specs == nullptr) {
    throw BadRequest("/v1/compare needs a 'schedulers' key (an array of scheduler spec strings)");
  }
  const JsonArray& spec_array = decode([&]() -> const JsonArray& { return specs->as_array(); });
  if (spec_array.empty()) {
    throw BadRequest("/v1/compare 'schedulers' must name at least one scheduler");
  }
  std::vector<std::string> names;
  std::vector<SchedulerPtr> schedulers;
  names.reserve(spec_array.size());
  schedulers.reserve(spec_array.size());
  for (std::size_t i = 0; i < spec_array.size(); ++i) {
    const std::string spec =
        decode([&] { return spec_array[i].as_string(); });
    schedulers.push_back(decode([&] { return SchedulerRegistry::instance().make(spec, seed); }));
    names.push_back(spec);
  }
  ProblemInstance inst = resolve_instance(body, seed);

  // Large rosters stream row-by-row as chunks instead of buffering the
  // whole body; each row is computed when its chunk is pulled (on the
  // serving worker's thread, so the warm arena still applies) and the
  // spliced chunks are byte-identical to the buffered body — pinned by the
  // determinism suite. `timings` bodies stay buffered: timing_us trails
  // the document and would force buffering anyway.
  if (options_.stream_rows_threshold != 0 && !timings &&
      spec_array.size() >= options_.stream_rows_threshold) {
    struct StreamState {
      ProblemInstance inst;
      std::vector<std::string> names;
      std::vector<SchedulerPtr> schedulers;
      TimelineArena* arena = nullptr;
      std::vector<double> makespans;
      std::size_t best = 0;
      std::size_t stage = 0;  // 0 = prefix, 1..n = rows, n+1 = suffix, then end
    };
    auto state = std::make_shared<StreamState>();
    state->inst = std::move(inst);
    state->names = std::move(names);
    state->schedulers = std::move(schedulers);
    state->makespans.reserve(state->schedulers.size());

    HttpResponse resp;
    resp.chunk_source = [this, state]() -> std::string {
      const std::size_t n = state->schedulers.size();
      if (state->stage == 0) {
        ++state->stage;
        return "{\"tasks\": " +
               Json::number(static_cast<double>(state->inst.graph.task_count())).dump() +
               ", \"nodes\": " +
               Json::number(static_cast<double>(state->inst.network.node_count())).dump() +
               ", \"rows\": [";
      }
      if (state->stage <= n) {
        const std::size_t i = state->stage - 1;
        ++state->stage;
        if (state->arena == nullptr) {
          // One arena acquisition per request, exactly like the buffered
          // path — keeps the arena-reuse telemetry identical.
          bool warm = false;
          state->arena = &thread_arena(warm);
        }
        const double makespan = state->schedulers[i]->plan_makespan(state->inst, state->arena);
        state->makespans.push_back(makespan);
        if (makespan < state->makespans[state->best]) state->best = i;
        const Json row = Json::object({{"scheduler", Json::string(state->names[i])},
                                       {"makespan", Json::number(makespan)}});
        return (i == 0 ? "" : ", ") + row.dump();
      }
      if (state->stage == n + 1) {
        ++state->stage;
        return "], \"best\": " +
               Json::object({{"scheduler", Json::string(state->names[state->best])},
                             {"makespan", Json::number(state->makespans[state->best])}})
                   .dump() +
               "}\n";
      }
      return {};
    };
    return resp;
  }

  bool warm = false;
  TimelineArena& arena = thread_arena(warm);
  const auto run_started = std::chrono::steady_clock::now();
  JsonArray rows;
  rows.reserve(schedulers.size());
  std::size_t best = 0;
  std::vector<double> makespans;
  makespans.reserve(schedulers.size());
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const double makespan = schedulers[i]->plan_makespan(inst, &arena);
    makespans.push_back(makespan);
    if (makespan < makespans[best]) best = i;
    rows.push_back(Json::object(
        {{"scheduler", Json::string(names[i])}, {"makespan", Json::number(makespan)}}));
  }
  const std::string compare_us = elapsed_us(run_started);

  Json out = Json::object({{"tasks", Json::number(static_cast<double>(inst.graph.task_count()))},
                           {"nodes", Json::number(static_cast<double>(inst.network.node_count()))},
                           {"rows", Json::array(std::move(rows))},
                           {"best", Json::object({{"scheduler", Json::string(names[best])},
                                                  {"makespan", Json::number(makespans[best])}})}});
  if (timings) {
    out.set("timing_us", Json::object({{"compare", Json::string(compare_us)}}));
  }
  HttpResponse resp;
  resp.body = out.dump() + "\n";
  return resp;
}

HttpResponse ScheduleService::handle_metrics() {
  Telemetry::Gauges gauges;
  if (gauge_sampler_) gauges = gauge_sampler_();
  gauges.uptime_seconds = uptime_seconds();
  if (options_.admission != nullptr) gauges.admission_shed = options_.admission->shed_total();
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = telemetry_.render_prometheus(gauges);
  return resp;
}

}  // namespace saga::serve
