#pragma once

// Unified runtime telemetry — the process-wide registry of named counters,
// gauges, and histogram timers behind every instrumented layer (trial
// kernel, ELT lookup tables, shard store, thread pool).
//
// Design constraints, in order:
//
//   1. Zero cost when disabled. Telemetry is off by default; every
//      instrumentation site gates on obs::enabled() (one relaxed atomic
//      load) and updates at *batch/block granularity*, never per event —
//      the kernel hot path stays bit-identical (counting never touches the
//      arithmetic) and within noise of an untelemetered build.
//   2. Stable handles. counter()/gauge()/histogram() return references
//      that live for the life of the process, so call sites resolve a name
//      once (function-local static) and update through the pointer with no
//      further lookups or locks.
//   3. Thread-safe everywhere. Instruments are plain relaxed atomics;
//      registration and snapshot take the registry mutex. Concurrent
//      updates from pool workers, shard I/O, and a snapshotting exporter
//      are all safe.
//
// The counter catalogue (names are dotted paths; see README "Observability"
// for the full list): kernel.* (blocks/trials/events + per-phase ns),
// elt.<kind>.* (lookups, probes, zero_page_hits), shard.* (spills, faults,
// bytes, resident gauges), pool.* (tasks, idle_ns), parallel.* (costed
// chunks). Exporters for the registry live in obs/export.hpp; the
// Chrome-trace span side lives in obs/trace.hpp.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace are::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when the registry is collecting. Instrumentation sites gate their
/// (batched) updates on this; it is a single relaxed load, hoistable out
/// of loops.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Flips collection on/off process-wide. Instruments keep their values
/// across toggles; reset via TelemetryRegistry::reset().
void set_enabled(bool on) noexcept;

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (resident bytes, queue depth). set() overwrites;
/// record_max() keeps the high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  void record_max(std::int64_t v) noexcept {
    std::int64_t current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Duration histogram over power-of-two nanosecond buckets: bucket b counts
/// samples with bit_width(ns) == b, i.e. ns in [2^(b-1), 2^b). Tracks
/// count/sum/min/max exactly; the buckets give the shape (a cheap HdrHistogram
/// stand-in for span durations: pool tasks, kernel blocks, shard I/O).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;  // up to ~2^39 ns ~ 9 minutes

  /// Inclusive value range of bucket b: [lower, upper]. Bucket 0 holds only
  /// ns == 0; bucket b >= 1 holds ns with bit_width(ns) == b, i.e.
  /// [2^(b-1), 2^b - 1]. The last bucket additionally absorbs everything
  /// past 2^(kBuckets-1) - 1 (its upper bound is open in practice).
  static constexpr std::uint64_t bucket_lower_ns(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static constexpr std::uint64_t bucket_upper_ns(std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
  }

  void record_ns(std::uint64_t ns) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_ns() const noexcept { return sum_ns_.load(std::memory_order_relaxed); }
  std::uint64_t min_ns() const noexcept;  // 0 when empty
  std::uint64_t max_ns() const noexcept { return max_ns_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// RAII timer into a Histogram: stamps on construction when the histogram
/// is non-null, records on destruction. Resolve the histogram through
/// `obs::enabled() ? &h : nullptr` so a disabled run never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

/// A consistent-enough copy of every instrument, sorted by name — what the
/// exporters (obs/export.hpp) and the CLI/service render. Values are read
/// with relaxed loads, so a snapshot taken during a run is a moment-in-time
/// sample, not a barrier.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t value;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    /// Per-bucket counts (Histogram's power-of-two ns buckets) — what the
    /// Prometheus exposition's cumulative `_bucket{le=...}` lines and the
    /// derived quantiles are computed from.
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};

    /// Estimated q-quantile (q in [0,1]) in nanoseconds, by linear
    /// interpolation inside the bucket holding the quantile rank, clamped
    /// to the observed [min_ns, max_ns]. 0 when the histogram is empty.
    std::uint64_t quantile_ns(double q) const noexcept;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Counter value by exact name; 0 when absent (tests and admission logic).
  std::uint64_t counter_value(std::string_view name) const noexcept;
  std::int64_t gauge_value(std::string_view name) const noexcept;
  /// Sum of every counter named `prefix`...`suffix` — ("elt.", ".lookups")
  /// totals the lookups of every table kind.
  std::uint64_t counter_sum(std::string_view prefix, std::string_view suffix) const noexcept;
  /// A histogram's total recorded nanoseconds; 0 when absent.
  std::uint64_t histogram_sum_ns(std::string_view name) const noexcept;

  /// The change since `earlier` — the per-request reporting primitive of
  /// the resident service, where the registry otherwise accumulates for the
  /// life of the process. Counters and histogram count/sum subtract
  /// (clamped at zero, so a reset() between the snapshots never
  /// underflows); gauges keep this snapshot's level (a gauge is a
  /// point-in-time reading, not an accumulation); histogram min/max carry
  /// this snapshot's values (the interval's extrema are not recoverable
  /// from two endpoint snapshots). Instruments that exist only in `this`
  /// are kept whole; instruments only in `earlier` are dropped. With
  /// overlapping concurrent requests the process-global counters attribute
  /// the overlap to both diffs.
  Snapshot diff(const Snapshot& earlier) const;
};

/// The process-wide instrument registry. Names are dotted lowercase paths
/// ("shard.spills"); an instrument is created on first request and lives
/// forever, so returned references never dangle.
class TelemetryRegistry {
 public:
  /// The registry every built-in instrumentation site uses.
  static TelemetryRegistry& global();

  /// An empty registry (tests that want isolation from global()).
  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Find-or-create; O(instruments) under the registry mutex, so resolve
  /// once and cache the reference (instrument addresses are stable).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument; names and handles survive (a handle cached
  /// before reset() keeps working). The between-runs/service-scrape hook.
  void reset();

  Snapshot snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

/// Scoped enable for one run: core::run()/run_to_sink() wrap execution in
/// this when AnalysisConfig::telemetry asks for collection, restoring the
/// prior process-wide flags afterwards (so a CLI/service that enabled
/// telemetry globally keeps it on). Both flags are process-global; with
/// concurrent runs the most permissive request wins for the overlap.
class RunScope {
 public:
  RunScope(bool counters, bool trace) noexcept;
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  bool prior_enabled_;
  bool prior_trace_;
};

}  // namespace are::obs
