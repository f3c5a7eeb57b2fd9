#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

/// \file trace.hpp
/// In-memory span and counter recorder for the benchmark's traced run.
///
/// A span records a name, start, end, parent span and trace id (the cell or
/// request it belongs to). Spans are appended to a per-thread buffer and
/// written once, at the end, by write_report(). Calls too frequent to keep
/// one span each (one scheduler plan inside an annealing step) go through
/// add_hot(): they bump a per-thread counter and charge their duration to
/// the innermost open span's `hidden_ns`, so that span's self time still
/// excludes them. Self time is computed from the report by
/// perfbench/harness/spans.py.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Id 0 means "no span": a root span, or "inherit from the enclosing span".
inline constexpr std::uint64_t kNoSpan = 0;

/// RAII span. With `parent == kNoSpan` the innermost open span of this
/// thread becomes the parent (and lends its trace id); pass an explicit
/// parent to link a worker-thread span to the span that spawned the work.
/// The name is kept as a view until the report is written: pass a literal.
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t trace = 0, std::uint64_t parent = kNoSpan);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::size_t slot_ = 0;  // index in this thread's span buffer
};

/// Counts one aggregated call of `name` lasting `ns` nanoseconds and charges
/// the time to the innermost open span as covered-by-children time.
void add_hot(std::string_view name, std::int64_t ns);

/// Adds `value` to the named counter (work counts: steps, bytes, tasks).
void add_count(std::string_view name, double value);

/// Writes every recorded span and counter as one JSON document:
///   {"wall_ns": W, "threads": T,
///    "spans": [[id, parent, trace, "name", thread, start_ns, end_ns, hidden_ns], ...],
///    "counters": {"name": {"calls": n, "ns": t, "value": v}, ...}}
/// Call only when no other thread is recording.
void write_report(std::ostream& out, std::int64_t wall_ns, std::size_t threads);

}  // namespace perfbench
