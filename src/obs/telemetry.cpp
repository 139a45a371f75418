#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "obs/trace.hpp"

namespace are::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Histogram::record_ns(std::uint64_t ns) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);

  std::uint64_t seen_min = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen_min &&
         !min_ns_.compare_exchange_weak(seen_min, ns, std::memory_order_relaxed)) {
  }
  std::uint64_t seen_max = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen_max &&
         !max_ns_.compare_exchange_weak(seen_max, ns, std::memory_order_relaxed)) {
  }

  std::size_t bucket = static_cast<std::size_t>(std::bit_width(ns));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::min_ns() const noexcept {
  std::uint64_t v = min_ns_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::uint64_t Snapshot::HistogramSample::quantile_ns(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank in [1, count] of the sample the quantile falls on.
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    const std::uint64_t lower = Histogram::bucket_lower_ns(b);
    // The top bucket absorbs everything past its nominal range; the
    // observed max is the honest upper bound there (and a tighter one
    // everywhere, since samples never exceed it).
    std::uint64_t upper = Histogram::bucket_upper_ns(b);
    if (b + 1 == buckets.size() || upper > max_ns) upper = max_ns;
    const double within =
        (target - static_cast<double>(before)) / static_cast<double>(buckets[b]);
    std::uint64_t estimate =
        lower + static_cast<std::uint64_t>(within * static_cast<double>(upper - lower));
    if (estimate < min_ns) estimate = min_ns;
    if (estimate > max_ns) estimate = max_ns;
    return estimate;
  }
  return max_ns;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const noexcept {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t Snapshot::gauge_value(std::string_view name) const noexcept {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

std::uint64_t Snapshot::counter_sum(std::string_view prefix,
                                    std::string_view suffix) const noexcept {
  std::uint64_t sum = 0;
  for (const CounterSample& c : counters) {
    const std::string_view name = c.name;
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      sum += c.value;
    }
  }
  return sum;
}

std::uint64_t Snapshot::histogram_sum_ns(std::string_view name) const noexcept {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return h.sum_ns;
  }
  return 0;
}

Snapshot Snapshot::diff(const Snapshot& earlier) const {
  Snapshot delta;
  delta.counters.reserve(counters.size());
  for (const CounterSample& c : counters) {
    const std::uint64_t before = earlier.counter_value(c.name);
    delta.counters.push_back({c.name, c.value >= before ? c.value - before : c.value});
  }
  delta.gauges = gauges;  // point-in-time levels: the later reading stands
  delta.histograms.reserve(histograms.size());
  for (const HistogramSample& h : histograms) {
    HistogramSample sample = h;
    for (const HistogramSample& e : earlier.histograms) {
      if (e.name != h.name) continue;
      sample.count = h.count >= e.count ? h.count - e.count : h.count;
      sample.sum_ns = h.sum_ns >= e.sum_ns ? h.sum_ns - e.sum_ns : h.sum_ns;
      if (h.count >= e.count) {
        for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
          sample.buckets[b] =
              h.buckets[b] >= e.buckets[b] ? h.buckets[b] - e.buckets[b] : h.buckets[b];
        }
      }
      break;
    }
    if (sample.count == 0) sample.min_ns = sample.max_ns = 0;  // as an empty Histogram reads
    delta.histograms.push_back(sample);
  }
  return delta;
}

TelemetryRegistry& TelemetryRegistry::global() {
  static TelemetryRegistry registry;
  return registry;
}

namespace {

template <typename T, typename Vec>
T& find_or_create(Vec& vec, std::string_view name) {
  for (auto& entry : vec) {
    if (entry.name == name) return *entry.instrument;
  }
  vec.push_back({std::string(name), std::make_unique<T>()});
  return *vec.back().instrument;
}

}  // namespace

Counter& TelemetryRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  return find_or_create<Counter>(counters_, name);
}

Gauge& TelemetryRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  return find_or_create<Gauge>(gauges_, name);
}

Histogram& TelemetryRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  return find_or_create<Histogram>(histograms_, name);
}

void TelemetryRegistry::reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& c : counters_) c.instrument->reset();
  for (auto& g : gauges_) g.instrument->reset();
  for (auto& h : histograms_) h.instrument->reset();
}

Snapshot TelemetryRegistry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& c : counters_) snap.counters.push_back({c.name, c.instrument->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& g : gauges_) snap.gauges.push_back({g.name, g.instrument->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      Snapshot::HistogramSample sample;
      sample.name = h.name;
      sample.count = h.instrument->count();
      sample.sum_ns = h.instrument->sum_ns();
      sample.min_ns = h.instrument->min_ns();
      sample.max_ns = h.instrument->max_ns();
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        sample.buckets[b] = h.instrument->bucket(b);
      }
      snap.histograms.push_back(std::move(sample));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace are::obs
