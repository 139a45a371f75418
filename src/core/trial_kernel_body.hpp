#pragma once

// The templated trial-block kernel body, shared verbatim by every
// per-extension translation unit (src/core/kernel_ext_*.cpp) and by the
// scalar instantiation in trial_kernel.cpp. Include nowhere else.
//
// Everything below TrialBlockKernel::Impl lives in an anonymous namespace
// ON PURPOSE, even though this is a header: each ISA translation unit is
// compiled with its own -m flags (-mavx2, -mavx512f, …) and must keep a
// private internal-linkage copy of every helper. If these were ordinary
// inline/template symbols, the linker's comdat selection could pick, say,
// the AVX-512-compiled copy of a helper for the whole binary — and a
// binary whose scalar path executes ZMM instructions is exactly the bug
// runtime dispatch exists to prevent. The only external-linkage symbols a
// kernel_ext_*.cpp TU may define are its uniquely-named factory functions
// (see trial_kernel.cpp's dispatch table).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/direct_elt_view.hpp"
#include "core/simd_terms.hpp"
#include "core/status.hpp"
#include "core/trial_kernel.hpp"
#include "fault/fault_injection.hpp"
#include "financial/trial_accumulator.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "simd/prefetch.hpp"
#include "simd/vec.hpp"

namespace are::core {

/// Lane-width erasure: the templated body behind a tiny virtual interface,
/// instantiated once per compiled extension and selected at construction.
/// Defined here (not in trial_kernel.cpp) so the per-extension TUs can
/// derive from it; the definition is identical in every includer.
struct TrialBlockKernel::Impl {
  virtual ~Impl() = default;
  virtual void run_range(std::uint64_t first, std::uint64_t last,
                         TrialKernelScratch& scratch) const = 0;
  std::size_t block_trials = 0;
};

namespace {

using KernelBodyClock = std::chrono::steady_clock;

/// The per-range counters, resolved once per translation unit: registry
/// handles live as long as the process, so a flush is a handful of relaxed
/// adds rather than a registry lookup per name (the ELT tables' idiom).
struct KernelCounters {
  obs::Histogram& block_ns;
  obs::Counter& blocks;
  obs::Counter& trials;
  obs::Counter& events;
  obs::Counter& replayed_events;
  obs::Counter& captured_events;
  obs::Counter& direct_lookups;
  obs::Counter& fetch_ns;
  obs::Counter& combine_ns;
  obs::Counter& lookup_ns;
  obs::Counter& financial_ns;
  obs::Counter& layer_ns;
  obs::Counter& output_ns;
};

inline const KernelCounters& kernel_counters() {
  obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
  static const KernelCounters counters{
      registry.histogram("kernel.block_ns"),
      registry.counter("kernel.blocks"),
      registry.counter("kernel.trials"),
      registry.counter("kernel.events"),
      registry.counter("kernel.ground_up.replayed_events"),
      registry.counter("kernel.ground_up.captured_events"),
      registry.counter("elt.direct_access.lookups"),
      registry.counter("kernel.phase.fetch_ns"),
      registry.counter("kernel.phase.combine_ns"),
      registry.counter("kernel.phase.lookup_ns"),
      registry.counter("kernel.phase.financial_ns"),
      registry.counter("kernel.phase.layer_ns"),
      registry.counter("kernel.phase.output_ns"),
  };
  return counters;
}

/// The Fig-6b split of one run_range, timed on the production loop itself.
/// run_block starts the clock and takes one lap after each step it
/// performs, charging the time since the previous lap to that step's
/// phase, so the phases partition the block: their sum is kernel.block_ns
/// less the timer's own entry and exit.
struct PhaseLaps {
  std::uint64_t fetch_ns = 0;      // replay: the cached-loss copy
  std::uint64_t combine_ns = 0;    // direct tables: gathers, per-ELT financial terms fused in
  std::uint64_t lookup_ns = 0;     // other tables: lookup_many
  std::uint64_t financial_ns = 0;  // other tables: the per-ELT financial fold
  std::uint64_t layer_ns = 0;      // occurrence terms + the aggregate recurrence
  std::uint64_t output_ns = 0;     // capture copy + sink emission
  /// Direct-table gathers, which bypass lookup_many and its counter.
  std::uint64_t direct_lookups = 0;
  KernelBodyClock::time_point mark;

  void start() noexcept { mark = KernelBodyClock::now(); }
  void lap(std::uint64_t& phase_ns) noexcept {
    const KernelBodyClock::time_point now = KernelBodyClock::now();
    phase_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark).count());
    mark = now;
  }
};

/// Immutable per-layer execution state hoisted out of the block loop: the
/// direct-table view (when eligible), the ELT/layer terms broadcast into
/// registers once, and the layer's YLT row (empty in sink mode, where block
/// rows are staged and emitted instead).
template <typename V>
struct LayerPlan {
  const Layer* layer;
  std::vector<detail::DirectElt> direct;  // empty unless Layer::all_direct_access()
  std::vector<detail::EltTermsV<V>> elt_terms;
  detail::LayerTermsV<V> terms;
  std::span<double> losses;
};

/// Combined ELT loss per event over the staged span, direct-table fast
/// path: guarded gathers straight out of the (untransposed) YET event
/// slice. The first ELT writes, later ELTs accumulate — same per-event
/// summation order as the scalar reference (0.0 + x == x exactly for the
/// engine's domain).
template <typename V>
void combine_elts_direct(const LayerPlan<V>& plan, const yet::EventId* events, std::size_t count,
                         double* combined) noexcept {
  constexpr std::size_t kW = V::kLanes;
  for (std::size_t e = 0; e < plan.direct.size(); ++e) {
    const detail::DirectElt& direct = plan.direct[e];
    const detail::EltTermsV<V>& terms_v = plan.elt_terms[e];
    const financial::FinancialTerms& terms = direct.terms;
    std::size_t i = 0;
    if (e == 0) {
      for (; i + kW <= count; i += kW) {
        const typename V::ivec idx = V::load_index(events + i);
        const typename V::reg loss = V::gather_guarded(direct.data, idx, direct.universe);
        V::store(combined + i, detail::apply_financial_v<V>(loss, terms_v));
      }
      for (; i < count; ++i) {
        const yet::EventId event = events[i];
        combined[i] = terms.apply(event < direct.universe ? direct.data[event] : 0.0);
      }
    } else {
      for (; i + kW <= count; i += kW) {
        const typename V::ivec idx = V::load_index(events + i);
        const typename V::reg loss = V::gather_guarded(direct.data, idx, direct.universe);
        V::store(combined + i,
                 V::add(V::load(combined + i), detail::apply_financial_v<V>(loss, terms_v)));
      }
      for (; i < count; ++i) {
        const yet::EventId event = events[i];
        combined[i] += terms.apply(event < direct.universe ? direct.data[event] : 0.0);
      }
    }
  }
}

/// One ELT's staged raw losses folded into the combined buffer with the
/// vectorized financial terms.
template <typename V>
void fold_raw_losses(const LayerPlan<V>& plan, std::size_t e, const double* raw,
                     std::size_t count, double* combined) noexcept {
  constexpr std::size_t kW = V::kLanes;
  const detail::EltTermsV<V>& terms_v = plan.elt_terms[e];
  const financial::FinancialTerms& terms = plan.layer->elts[e].terms;
  std::size_t i = 0;
  if (e == 0) {
    for (; i + kW <= count; i += kW) {
      V::store(combined + i, detail::apply_financial_v<V>(V::load(raw + i), terms_v));
    }
    for (; i < count; ++i) combined[i] = terms.apply(raw[i]);
  } else {
    for (; i + kW <= count; i += kW) {
      V::store(combined + i, V::add(V::load(combined + i),
                                    detail::apply_financial_v<V>(V::load(raw + i), terms_v)));
    }
    for (; i < count; ++i) combined[i] += terms.apply(raw[i]);
  }
}

/// Generic path: one lookup_many batch call per ELT (the prefetching
/// overrides in src/elt/), then the vectorized financial terms over the
/// staged raw losses — lapped as the lookup and financial phases when
/// timing.
template <typename V>
void combine_elts_generic(const LayerPlan<V>& plan, const yet::EventId* events,
                          std::size_t count, double* combined, std::vector<double>& raw,
                          PhaseLaps* laps) {
  raw.resize(count);
  const std::vector<LayerElt>& elts = plan.layer->elts;
  for (std::size_t e = 0; e < elts.size(); ++e) {
    {
      obs::Span span("elt.lookup_many", "elt");
      elts[e].lookup->lookup_many(events, count, raw.data());
    }
    if (laps != nullptr) laps->lap(laps->lookup_ns);
    fold_raw_losses(plan, e, raw.data(), count, combined);
    if (laps != nullptr) laps->lap(laps->financial_ns);
  }
}

/// Occurrence terms, vectorized in place.
template <typename V>
void apply_occurrence_terms(const LayerPlan<V>& plan, double* combined,
                            std::size_t count) noexcept {
  constexpr std::size_t kW = V::kLanes;
  std::size_t i = 0;
  for (; i + kW <= count; i += kW) {
    V::store(combined + i, detail::excess_v<V>(V::load(combined + i), plan.terms.occ_retention,
                                               plan.terms.occ_limit));
  }
  for (; i < count; ++i) combined[i] = plan.layer->terms.apply_occurrence(combined[i]);
}

/// The path-dependent aggregate recurrence, per trial, writing
/// row[trial - t0]. Windowed semantics: out-of-window occurrences are
/// skipped entirely, so they do not advance the recurrence.
inline void aggregate_trials(const financial::LayerTerms& terms, const double* combined,
                             const float* times, const CoverageWindow* window,
                             std::span<const std::uint64_t> offsets, std::uint64_t t0,
                             std::uint64_t t1, std::uint64_t ev0, double* row) noexcept {
  for (std::uint64_t trial = t0; trial < t1; ++trial) {
    financial::TrialAccumulator accumulator(terms);
    const std::size_t begin = static_cast<std::size_t>(offsets[trial] - ev0);
    const std::size_t end = static_cast<std::size_t>(offsets[trial + 1] - ev0);
    if (window == nullptr) {
      for (std::size_t k = begin; k < end; ++k) accumulator.add_occurrence(combined[k]);
    } else {
      for (std::size_t k = begin; k < end; ++k) {
        if (window->covers(times[k])) accumulator.add_occurrence(combined[k]);
      }
    }
    row[trial - t0] = accumulator.trial_loss();
  }
}

template <typename Ext>
class KernelImpl final : public TrialBlockKernel::Impl {
  using V = simd::VecD<Ext>;

 public:
  KernelImpl(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
             const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink)
      : yet_(&yet_table),
        event_chunk_(config.event_chunk),
        capture_(config.ground_up_capture),
        replay_(config.ground_up_replay),
        cancel_(config.cancel),
        sink_(sink),
        sink_block_(sink != nullptr ? sink->block_trials() : 0) {
    if (config.window && !config.window->full_year()) {
      window_storage_ = *config.window;
      window_ = &window_storage_;
    }
    plans_.reserve(portfolio.layers.size());
    for (std::size_t layer_index = 0; layer_index < portfolio.layers.size(); ++layer_index) {
      const Layer& layer = portfolio.layers[layer_index];
      LayerPlan<V> plan;
      plan.layer = &layer;
      if (layer.all_direct_access()) plan.direct = detail::direct_view(layer);
      plan.elt_terms.reserve(layer.elts.size());
      for (const LayerElt& layer_elt : layer.elts) {
        plan.elt_terms.push_back(detail::EltTermsV<V>::from(layer_elt.terms));
      }
      plan.terms = detail::LayerTermsV<V>::from(layer.terms);
      if (ylt != nullptr) plan.losses = ylt->layer_losses(layer_index);
      plans_.push_back(std::move(plan));
    }
  }

  void run_range(std::uint64_t first, std::uint64_t last,
                 TrialKernelScratch& scratch) const override {
    const std::span<const std::uint64_t> offsets = yet_->offsets();
    const yet::EventId* all_events = yet_->events().data();

    // Telemetry is flushed once per run_range call (= one task / launch
    // slice), never per block or per event: the flag is sampled here, and
    // when it is off the hot loop below only tests a null `laps`.
    const KernelCounters* counters = obs::enabled() ? &kernel_counters() : nullptr;
    PhaseLaps phase_laps;
    PhaseLaps* laps = counters != nullptr ? &phase_laps : nullptr;
    std::uint64_t blocks = 0;

    // Completed work is flushed whether the range finishes or is cancelled
    // mid-way — the per-block counters must never claim trials that did not
    // run.
    const auto flush_telemetry = [&](std::uint64_t up_to) {
      if (counters == nullptr || blocks == 0) return;
      const std::uint64_t events = offsets[up_to] - offsets[first];
      counters->blocks.add(blocks);
      counters->trials.add(up_to - first);
      counters->events.add(events);
      if (replay_ != nullptr) counters->replayed_events.add(events);
      if (capture_ != nullptr) counters->captured_events.add(events);
      counters->direct_lookups.add(phase_laps.direct_lookups);
      counters->fetch_ns.add(phase_laps.fetch_ns);
      counters->combine_ns.add(phase_laps.combine_ns);
      counters->lookup_ns.add(phase_laps.lookup_ns);
      counters->financial_ns.add(phase_laps.financial_ns);
      counters->layer_ns.add(phase_laps.layer_ns);
      counters->output_ns.add(phase_laps.output_ns);
    };

    for (std::uint64_t t0 = first, t1 = first; t0 < last; t0 = t1) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        // The cancellation checkpoint: charge the blocks this range will
        // not run (sink clamps ignored — an upper-bound partition count is
        // what the "work abandoned" counter is for), flush what did run,
        // and surface the token's reason. Counted unconditionally: a
        // cancelled quote must be attributable even on an untelemetered
        // service.
        const std::uint64_t remaining = (last - t0 + block_trials - 1) / block_trials;
        obs::TelemetryRegistry::global().counter("kernel.cancelled_blocks").add(remaining);
        flush_telemetry(t0);
        const StatusCode reason = cancel_->reason();
        throw StatusError(reason, "kernel: run cancelled between trial blocks (" +
                                      std::string(to_string(reason)) + ")");
      }
      t1 = std::min<std::uint64_t>(t0 + block_trials, last);
      if (sink_block_ != 0) {
        // Clamp the block at the next sink block (= shard) boundary.
        const std::uint64_t boundary = (t0 / sink_block_ + 1) * sink_block_;
        t1 = std::min<std::uint64_t>(t1, boundary);
      }

      // Stream the head of the NEXT block's event ids toward the cache while
      // this block computes (16 u32 ids per 64-byte line). The burst is
      // capped: past ~4 KB the lines would be evicted again before the
      // multi-layer compute reaches them. A replay block never reads event
      // ids (combined losses come from the ground-up cache), so the
      // prefetch is skipped.
      if (replay_ == nullptr) {
        constexpr std::uint64_t kPrefetchIds = 1024;  // 64 cache lines
        const std::uint64_t n1 = std::min<std::uint64_t>(t1 + block_trials, last);
        const std::uint64_t next_end =
            std::min<std::uint64_t>(offsets[n1], offsets[t1] + kPrefetchIds);
        for (std::uint64_t p = offsets[t1]; p < next_end; p += 16) {
          simd::prefetch_read(all_events + p);
        }
      }

      {
        obs::ScopedTimer block_timer(counters != nullptr ? &counters->block_ns : nullptr);
        run_block(t0, t1, scratch, laps);
      }
      ++blocks;
    }

    flush_telemetry(last);
  }

 private:
  /// One block of trials for every layer. With `laps` (telemetry on) the
  /// clock starts here and laps after each step, per chunk when chunked.
  void run_block(std::uint64_t t0, std::uint64_t t1, TrialKernelScratch& scratch,
                 PhaseLaps* laps) const {
    if (laps != nullptr) laps->start();
    const std::span<const std::uint64_t> offsets = yet_->offsets();
    const std::uint64_t ev0 = offsets[t0];
    const std::size_t count = static_cast<std::size_t>(offsets[t1] - ev0);
    const yet::EventId* events = yet_->events().data() + ev0;
    const float* times = yet_->times().data() + ev0;
    const std::size_t num_block_trials = static_cast<std::size_t>(t1 - t0);
    if (fault::should_inject(fault::sites::kKernelAlloc)) throw std::bad_alloc();
    scratch.combined.resize(count);
    if (sink_ != nullptr) scratch.block_losses.resize(plans_.size() * num_block_trials);

    const std::size_t chunk = event_chunk_ != 0 ? event_chunk_ : count;
    for (std::size_t layer_index = 0; layer_index < plans_.size(); ++layer_index) {
      const LayerPlan<V>& plan = plans_[layer_index];
      double* combined = scratch.combined.data();
      if (replay_ != nullptr) {
        // Delta execution: the combined pre-occurrence losses were captured
        // by an earlier full run; copy them in and skip the
        // fetch/lookup/financial phases entirely. The copied doubles are the
        // very values the full run computed, and occurrence terms are
        // elementwise (min/max/sub, no cross-lane or cross-chunk state), so
        // the bytes below match a cold run exactly.
        const double* cached =
            replay_->layer_values(layer_index) + static_cast<std::size_t>(ev0);
        std::copy(cached, cached + count, combined);
        if (laps != nullptr) laps->lap(laps->fetch_ns);
        apply_occurrence_terms<V>(plan, combined, count);
      } else {
        // Phase 1+2: batch ELT lookups + financial terms across ELTs, then
        // occurrence terms — staged in event_chunk-bounded spans (the whole
        // block when unconstrained).
        for (std::size_t c0 = 0; c0 < count; c0 += chunk) {
          const std::size_t n = std::min(chunk, count - c0);
          if (!plan.direct.empty()) {
            combine_elts_direct<V>(plan, events + c0, n, combined + c0);
            if (laps != nullptr) {
              laps->direct_lookups += plan.direct.size() * n;
              laps->lap(laps->combine_ns);
            }
          } else {
            combine_elts_generic<V>(plan, events + c0, n, combined + c0, scratch.raw, laps);
          }
          if (capture_ != nullptr) {
            // Capture between combine and the in-place occurrence terms:
            // this chunk's slice is final combined losses right here.
            // Concurrent blocks write disjoint [ev0, ev0+count) ranges.
            std::copy(combined + c0, combined + c0 + n,
                      capture_->layer_values(layer_index) + static_cast<std::size_t>(ev0) + c0);
            if (laps != nullptr) laps->lap(laps->output_ns);
          }
          apply_occurrence_terms<V>(plan, combined + c0, n);
          if (laps != nullptr) laps->lap(laps->layer_ns);
        }
      }
      double* row = sink_ != nullptr ? scratch.block_losses.data() + layer_index * num_block_trials
                                     : plan.losses.data() + t0;
      aggregate_trials(plan.layer->terms, combined, times, window_, offsets, t0, t1, ev0, row);
      if (laps != nullptr) laps->lap(laps->layer_ns);
    }

    if (sink_ != nullptr) {
      // Sink emission: a memcpy for a materialized sink, a shard pin +
      // scatter — possibly faulting — for a sharded one.
      for (std::size_t layer_index = 0; layer_index < plans_.size(); ++layer_index) {
        sink_->emit(layer_index, t0,
                    {scratch.block_losses.data() + layer_index * num_block_trials,
                     num_block_trials});
      }
      if (laps != nullptr) laps->lap(laps->output_ns);
    }
  }

  std::vector<LayerPlan<V>> plans_;
  const yet::YearEventTable* yet_;
  CoverageWindow window_storage_;
  const CoverageWindow* window_ = nullptr;  // null = full year
  std::size_t event_chunk_;
  GroundUpLossCache* capture_;        // null = no capture
  const GroundUpLossCache* replay_;   // null = full run
  const CancelToken* cancel_;         // null = never cancelled
  YltSink* sink_;
  std::uint64_t sink_block_;
};

}  // namespace
}  // namespace are::core
