#pragma once

// Chrome-trace spans: scoped begin/end events collected per thread and
// exported as `trace_event` JSON that chrome://tracing and Perfetto load
// directly. Spans answer the timeline questions counters cannot — does
// spill I/O overlap compute, how well does the pool pack costed chunks,
// where do kernel launches sit relative to shard faults.
//
// Collection is separate from the counter registry (obs/telemetry.hpp) and
// has its own enable flag, because tracing allocates (per-thread event
// logs) while counters never do. Both are process-wide switches
// (obs::set_enabled / set_trace_enabled), which are_cli --telemetry sets.
//
// Cost model: a Span is two steady_clock reads plus two appends into a
// thread-local vector under that thread's own (uncontended) mutex; with
// tracing disabled a Span is one relaxed load captured at construction.
// Span names must be string literals (or otherwise outlive the buffer) —
// events store the pointer, not a copy.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace are::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on) noexcept;

/// Process-wide sink for span events. Each thread appends to its own log
/// (registered on first use under the buffer mutex, giving it a stable
/// small tid); export walks every log, so spans from pool workers, shard
/// I/O, and the main thread interleave correctly on the timeline.
class TraceBuffer {
 public:
  static TraceBuffer& global();

  struct Event {
    const char* name;       // string literal; not owned
    const char* category;   // string literal; not owned
    char phase;             // 'B', 'E', or 'i' (instant)
    std::uint32_t tid;      // registration-order thread id (stable, small)
    std::uint64_t time_ns;  // steady_clock since process trace epoch
    std::string args;       // pre-rendered JSON object ("{...}"); empty = none
  };

  TraceBuffer();
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void append(const char* name, const char* category, char phase, std::string args = {});

  /// A zero-duration marker (Chrome-trace 'i' phase, thread scope) — how a
  /// quote's request id lands on the timeline so it is findable by search.
  /// `args` is a pre-rendered JSON object or empty.
  void append_instant(const char* name, const char* category, std::string args = {});

  /// Writes `{"traceEvents":[...]}` with timestamps in microseconds
  /// (fractional, so distinct nanosecond stamps stay distinct and
  /// per-thread ordering survives the unit change).
  void write_chrome_json(std::ostream& out) const;

  /// Drops all recorded events. Thread logs (and tids) persist.
  void clear();

  std::size_t event_count() const;

 private:
  struct ThreadLog {
    mutable std::mutex mutex;  // appends vs. a concurrent export
    std::uint32_t tid = 0;
    std::vector<Event> events;
  };

  ThreadLog& log_for_this_thread();

  mutable std::mutex mutex_;  // guards logs_ growth
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: emits a 'B' event on construction and the matching 'E' on
/// destruction. The enabled flag is captured once at construction, so a
/// span that begins stays balanced even if tracing is switched off
/// mid-scope. `name` and `category` must be string literals.
class Span {
 public:
  Span(const char* name, const char* category) noexcept
      : name_(name), category_(category), active_(trace_enabled()) {
    if (active_) TraceBuffer::global().append(name_, category_, 'B');
  }
  /// Annotated span: `args` (a pre-rendered JSON object, e.g.
  /// `{"request_id":"q-000001"}`) rides on the 'B' event, so the
  /// annotation is visible when the span is selected in the viewer.
  Span(const char* name, const char* category, std::string args)
      : name_(name), category_(category), active_(trace_enabled()) {
    if (active_) TraceBuffer::global().append(name_, category_, 'B', std::move(args));
  }
  ~Span() {
    if (active_) TraceBuffer::global().append(name_, category_, 'E');
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  bool active_;
};

}  // namespace are::obs
