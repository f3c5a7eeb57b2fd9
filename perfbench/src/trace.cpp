#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t hidden_ns = 0;
};

struct Counter {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  double value = 0.0;
};

/// One recording thread's state. Owned by the global registry so it
/// outlives its thread (pool workers may exit before the report is written).
struct ThreadBuffer {
  std::size_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  // slots of the open spans, innermost last
  std::map<std::string, Counter, std::less<>> counters;

  Counter& counter(std::string_view name) {
    auto it = counters.find(name);
    if (it == counters.end()) it = counters.emplace(std::string(name), Counter{}).first;
    return it->second;
  }
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> registry;  // guarded by registry_mutex
std::atomic<std::uint64_t> next_span_id{1};

ThreadBuffer& local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(registry_mutex);
    registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.back().get();
    buffer->thread = registry.size() - 1;
  }
  return *buffer;
}

void write_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

Span::Span(std::string_view name, std::uint64_t trace, std::uint64_t parent) {
  ThreadBuffer& buffer = local();
  SpanRecord record;
  record.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  record.name = name;
  if (parent == kNoSpan && !buffer.open.empty()) {
    const SpanRecord& enclosing = buffer.spans[buffer.open.back()];
    record.parent = enclosing.id;
    record.trace = trace != 0 ? trace : enclosing.trace;
  } else {
    record.parent = parent;
    record.trace = trace;
  }
  id_ = record.id;
  slot_ = buffer.spans.size();
  buffer.open.push_back(slot_);
  record.start_ns = now_ns();
  buffer.spans.push_back(record);
}

Span::~Span() {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local();
  buffer.spans[slot_].end_ns = end;
  buffer.open.pop_back();
}

void add_hot(std::string_view name, std::int64_t ns) {
  ThreadBuffer& buffer = local();
  Counter& counter = buffer.counter(name);
  ++counter.calls;
  counter.ns += ns;
  if (!buffer.open.empty()) buffer.spans[buffer.open.back()].hidden_ns += ns;
}

void add_count(std::string_view name, double value) {
  local().counter(name).value += value;
}

void write_report(std::ostream& out, std::int64_t wall_ns, std::size_t threads) {
  std::lock_guard lock(registry_mutex);
  out << "{\"wall_ns\": " << wall_ns << ", \"threads\": " << threads << ", \"spans\": [";
  bool first = true;
  for (const auto& buffer : registry) {
    for (const SpanRecord& span : buffer->spans) {
      out << (first ? "\n" : ",\n") << '[' << span.id << ", " << span.parent << ", "
          << span.trace << ", ";
      write_string(out, span.name);
      out << ", " << buffer->thread << ", " << span.start_ns << ", " << span.end_ns << ", "
          << span.hidden_ns << ']';
      first = false;
    }
  }
  out << "],\n\"counters\": {";
  std::map<std::string, Counter, std::less<>> merged;
  for (const auto& buffer : registry) {
    for (const auto& [name, counter] : buffer->counters) {
      Counter& total = merged[name];
      total.calls += counter.calls;
      total.ns += counter.ns;
      total.value += counter.value;
    }
  }
  first = true;
  for (const auto& [name, counter] : merged) {
    out << (first ? "\n" : ",\n");
    write_string(out, name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", counter.value);
    out << ": {\"calls\": " << counter.calls << ", \"ns\": " << counter.ns
        << ", \"value\": " << value << '}';
    first = false;
  }
  out << "}}\n";
}

}  // namespace perfbench
