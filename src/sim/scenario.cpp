#include "sim/scenario.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

namespace saga::sim {

namespace {

using exp::Json;
using exp::check_keys;
using exp::JsonArray;

double finite_number(const Json& json, const std::string& context) {
  const double value = json.as_number();
  if (!std::isfinite(value)) {
    throw std::invalid_argument(context + " must be finite" + json.position_suffix());
  }
  return value;
}

void require_time(double value, const std::string& context) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(context + " must be a finite non-negative time");
  }
}

void require_factor(double value, const std::string& context) {
  if (!std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument(context + " must be a finite positive factor");
  }
}

void require_node(std::size_t node, std::size_t node_count, const std::string& context) {
  if (node_count != kAnyNodeCount && node >= node_count) {
    throw std::invalid_argument(context + " names node " + std::to_string(node) +
                                " but the network has only " + std::to_string(node_count) +
                                " nodes");
  }
}

ArrivalProcess arrivals_from_json(const Json& json) {
  check_keys(json, {"process", "rate", "jobs", "times"}, "scenario arrivals");
  ArrivalProcess arrivals;
  std::string process = "poisson";
  if (const Json* v = json.find("process")) process = v->as_string();
  if (process == "poisson") {
    arrivals.kind = ArrivalProcess::Kind::kPoisson;
    if (const Json* v = json.find("rate")) arrivals.rate = finite_number(*v, "arrival 'rate'");
    if (const Json* v = json.find("jobs")) arrivals.jobs = v->as_u64("arrival 'jobs'");
    if (json.find("times") != nullptr) {
      throw std::invalid_argument("poisson arrivals take 'rate' and 'jobs', not 'times'");
    }
  } else if (process == "trace") {
    arrivals.kind = ArrivalProcess::Kind::kTrace;
    if (json.find("rate") != nullptr || json.find("jobs") != nullptr) {
      throw std::invalid_argument("trace arrivals take 'times', not 'rate'/'jobs'");
    }
    const Json* times = json.find("times");
    if (times == nullptr) throw std::invalid_argument("trace arrivals need 'times'");
    for (const auto& item : times->as_array()) {
      arrivals.times.push_back(finite_number(item, "arrival time"));
    }
  } else {
    throw std::invalid_argument("arrival 'process' must be 'poisson' or 'trace', got '" +
                                process + "'");
  }
  return arrivals;
}

FaultEvent fault_from_json(const Json& json) {
  FaultEvent fault;
  const Json* type = json.find("type");
  if (type == nullptr) throw std::invalid_argument("fault entry needs a 'type'");
  const std::string kind = type->as_string();
  if (kind == "crash" || kind == "recover") {
    check_keys(json, {"type", "node", "at"}, "fault entry");
    fault.kind = kind == "crash" ? FaultEvent::Kind::kCrash : FaultEvent::Kind::kRecover;
    const Json* at = json.find("at");
    if (at == nullptr) throw std::invalid_argument("fault '" + kind + "' needs 'at'");
    fault.at = finite_number(*at, "fault 'at'");
  } else if (kind == "slowdown") {
    check_keys(json, {"type", "node", "from", "to", "factor"}, "fault entry");
    fault.kind = FaultEvent::Kind::kSlowdown;
    const Json* from = json.find("from");
    const Json* to = json.find("to");
    const Json* factor = json.find("factor");
    if (from == nullptr || to == nullptr || factor == nullptr) {
      throw std::invalid_argument("fault 'slowdown' needs 'from', 'to' and 'factor'");
    }
    fault.at = finite_number(*from, "slowdown 'from'");
    fault.until = finite_number(*to, "slowdown 'to'");
    fault.factor = finite_number(*factor, "slowdown 'factor'");
  } else {
    throw std::invalid_argument("fault 'type' must be 'crash', 'recover' or 'slowdown', got '" +
                                kind + "'");
  }
  const Json* node = json.find("node");
  if (node == nullptr) throw std::invalid_argument("fault '" + kind + "' needs 'node'");
  fault.node = node->as_u64("fault 'node'");
  return fault;
}

JitterEvent jitter_from_json(const Json& json) {
  check_keys(json, {"at", "link", "factor"}, "jitter entry");
  JitterEvent jitter;
  const Json* at = json.find("at");
  const Json* factor = json.find("factor");
  if (at == nullptr || factor == nullptr) {
    throw std::invalid_argument("jitter entry needs 'at' and 'factor'");
  }
  jitter.at = finite_number(*at, "jitter 'at'");
  jitter.factor = finite_number(*factor, "jitter 'factor'");
  if (const Json* link = json.find("link")) {
    const JsonArray& pair = link->as_array();
    if (pair.size() != 2) {
      throw std::invalid_argument("jitter 'link' must be a two-node array [a, b]");
    }
    jitter.has_link = true;
    jitter.a = pair[0].as_u64("jitter link endpoint");
    jitter.b = pair[1].as_u64("jitter link endpoint");
  }
  return jitter;
}

}  // namespace

void validate_faults(const std::vector<FaultEvent>& faults, std::size_t node_count) {
  struct NodeScript {
    bool down = false;          // crash seen without a recover yet
    double last_event = -1.0;   // last crash/recover time
    double slowdown_end = 0.0;  // end of the latest slowdown window
  };
  std::map<std::size_t, NodeScript> nodes;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEvent& fault = faults[i];
    const std::string context = "fault #" + std::to_string(i + 1);
    require_node(fault.node, node_count, context);
    require_time(fault.at, context + " time");
    NodeScript& script = nodes[fault.node];
    switch (fault.kind) {
      case FaultEvent::Kind::kCrash:
        if (script.down) {
          throw std::invalid_argument(context + ": node " + std::to_string(fault.node) +
                                      " crashes while already down (missing recover)");
        }
        if (fault.at <= script.last_event) {
          throw std::invalid_argument(context + ": node " + std::to_string(fault.node) +
                                      " crash/recover times must strictly increase");
        }
        script.down = true;
        script.last_event = fault.at;
        break;
      case FaultEvent::Kind::kRecover:
        if (!script.down) {
          throw std::invalid_argument(context + ": node " + std::to_string(fault.node) +
                                      " recovers without a preceding crash");
        }
        if (fault.at <= script.last_event) {
          throw std::invalid_argument(context + ": node " + std::to_string(fault.node) +
                                      " crash/recover times must strictly increase");
        }
        script.down = false;
        script.last_event = fault.at;
        break;
      case FaultEvent::Kind::kSlowdown:
        require_time(fault.until, context + " 'to'");
        require_factor(fault.factor, context + " 'factor'");
        if (!(fault.until > fault.at)) {
          throw std::invalid_argument(context + ": slowdown window needs from < to");
        }
        if (fault.at < script.slowdown_end) {
          throw std::invalid_argument(context + ": node " + std::to_string(fault.node) +
                                      " slowdown windows must be non-overlapping and listed "
                                      "in increasing order");
        }
        script.slowdown_end = fault.until;
        break;
    }
  }
}

void validate_jitter(const std::vector<JitterEvent>& jitter, std::size_t node_count) {
  for (std::size_t i = 0; i < jitter.size(); ++i) {
    const JitterEvent& event = jitter[i];
    const std::string context = "jitter #" + std::to_string(i + 1);
    require_time(event.at, context + " 'at'");
    require_factor(event.factor, context + " 'factor'");
    if (event.has_link) {
      require_node(event.a, node_count, context);
      require_node(event.b, node_count, context);
      if (event.a == event.b) {
        throw std::invalid_argument(context + ": a jitter link needs two distinct nodes");
      }
    }
  }
}

Scenario Scenario::from_json(const Json& json) {
  check_keys(json, {"dataset", "arrivals", "faults", "jitter", "noise_cv"}, "scenario");
  Scenario scenario;
  if (const Json* v = json.find("dataset")) scenario.dataset = v->as_string();
  if (const Json* v = json.find("arrivals")) scenario.arrivals = arrivals_from_json(*v);
  if (const Json* v = json.find("faults")) {
    for (const auto& item : v->as_array()) scenario.faults.push_back(fault_from_json(item));
  }
  if (const Json* v = json.find("jitter")) {
    for (const auto& item : v->as_array()) scenario.jitter.push_back(jitter_from_json(item));
  }
  if (const Json* v = json.find("noise_cv")) {
    scenario.noise_cv = finite_number(*v, "scenario 'noise_cv'");
  }
  return scenario;
}

Json Scenario::to_json() const {
  Json json = Json::object();
  json.set("dataset", Json::string(dataset));
  Json arrivals_json = Json::object();
  if (arrivals.kind == ArrivalProcess::Kind::kPoisson) {
    arrivals_json.set("process", Json::string("poisson"));
    arrivals_json.set("rate", Json::number(arrivals.rate));
    arrivals_json.set("jobs", Json::number(static_cast<double>(arrivals.jobs)));
  } else {
    arrivals_json.set("process", Json::string("trace"));
    JsonArray times;
    for (const double t : arrivals.times) times.push_back(Json::number(t));
    arrivals_json.set("times", Json::array(std::move(times)));
  }
  json.set("arrivals", std::move(arrivals_json));
  if (!faults.empty()) {
    JsonArray items;
    for (const FaultEvent& fault : faults) {
      Json item = Json::object();
      switch (fault.kind) {
        case FaultEvent::Kind::kCrash:
          item.set("type", Json::string("crash"));
          item.set("node", Json::number(static_cast<double>(fault.node)));
          item.set("at", Json::number(fault.at));
          break;
        case FaultEvent::Kind::kRecover:
          item.set("type", Json::string("recover"));
          item.set("node", Json::number(static_cast<double>(fault.node)));
          item.set("at", Json::number(fault.at));
          break;
        case FaultEvent::Kind::kSlowdown:
          item.set("type", Json::string("slowdown"));
          item.set("node", Json::number(static_cast<double>(fault.node)));
          item.set("from", Json::number(fault.at));
          item.set("to", Json::number(fault.until));
          item.set("factor", Json::number(fault.factor));
          break;
      }
      items.push_back(std::move(item));
    }
    json.set("faults", Json::array(std::move(items)));
  }
  if (!jitter.empty()) {
    JsonArray items;
    for (const JitterEvent& event : jitter) {
      Json item = Json::object();
      item.set("at", Json::number(event.at));
      if (event.has_link) {
        JsonArray link;
        link.push_back(Json::number(static_cast<double>(event.a)));
        link.push_back(Json::number(static_cast<double>(event.b)));
        item.set("link", Json::array(std::move(link)));
      }
      item.set("factor", Json::number(event.factor));
      items.push_back(std::move(item));
    }
    json.set("jitter", Json::array(std::move(items)));
  }
  if (noise_cv > 0.0) json.set("noise_cv", Json::number(noise_cv));
  return json;
}

void Scenario::validate() const {
  if (dataset.empty()) {
    throw std::invalid_argument("scenario needs a 'dataset' spec string to stream jobs from");
  }
  constexpr std::size_t kMaxJobs = 100000;
  switch (arrivals.kind) {
    case ArrivalProcess::Kind::kPoisson:
      if (!std::isfinite(arrivals.rate) || arrivals.rate <= 0.0) {
        throw std::invalid_argument("poisson arrival rate must be a finite positive number");
      }
      if (arrivals.jobs == 0 || arrivals.jobs > kMaxJobs) {
        throw std::invalid_argument("poisson arrivals need 1 <= jobs <= " +
                                    std::to_string(kMaxJobs));
      }
      break;
    case ArrivalProcess::Kind::kTrace: {
      if (arrivals.times.empty() || arrivals.times.size() > kMaxJobs) {
        throw std::invalid_argument("trace arrivals need 1 <= times <= " +
                                    std::to_string(kMaxJobs));
      }
      double previous = 0.0;
      for (std::size_t i = 0; i < arrivals.times.size(); ++i) {
        const double t = arrivals.times[i];
        require_time(t, "arrival time #" + std::to_string(i + 1));
        if (t < previous) {
          throw std::invalid_argument("trace arrival times must be non-decreasing");
        }
        previous = t;
      }
      break;
    }
  }
  validate_faults(faults, kAnyNodeCount);
  validate_jitter(jitter, kAnyNodeCount);
  if (!std::isfinite(noise_cv) || noise_cv < 0.0 || noise_cv > 1.0) {
    throw std::invalid_argument("scenario 'noise_cv' must lie in [0, 1]");
  }
}

}  // namespace saga::sim
