#pragma once

// The unified trial-block kernel — the one loop nest behind every engine.
//
// The paper's aggregate analysis is a single computation: walk YET trials,
// look up each event's loss in the layer's ELTs, apply financial/occurrence/
// aggregate terms, land the net trial loss in the YLT. This layer implements
// that computation exactly once, over one contiguous *block* of trials for
// all layers, with every cross-cutting feature built in:
//
//   - scalar and simd::VecD term paths (one templated body; the lane type is
//     a runtime choice, resolved once at kernel construction),
//   - an optional CoverageWindow,
//   - the Fig-6b phase laps and access counts, recorded into the obs
//     registry whenever telemetry is on (kernel.phase.*_ns),
//   - optional event-chunked staging (the paper's Fig-5a GPU chunk knob),
//   - delivery either straight into a YearLossTable or into a YltSink
//     (finished blocks never cross sink.block_trials() boundaries, so a
//     sharded sink receives each block into exactly one shard).
//
// An engine is nothing but a schedule over this kernel (serial /
// parallel_for / parallel_for_costed / OpenMP, see KernelLaunch); the knobs
// above are TrialKernelConfig, set identically for every engine by
// core::run (core/analysis.cpp). Every (engine x threads x lane x chunk x
// block x sink) combination produces bytes identical to the scalar serial
// reference, because every combination runs this body: per (layer, trial)
// cell the arithmetic and its order never change, only which cells share a
// register or a thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/cancel.hpp"
#include "core/coverage_window.hpp"
#include "core/engine.hpp"
#include "core/simd_engine.hpp"
#include "core/ylt_sink.hpp"
#include "parallel/parallel_for.hpp"

namespace are::core {

/// Per-(layer, event-occurrence) *combined* losses: the exact intermediate
/// the kernel produces after the ELT lookups and per-ELT financial terms
/// have been folded across a layer's ELTs, but BEFORE the layer's
/// occurrence terms touch the buffer. This is the delta-execution cache of
/// the resident service (src/service/): the buffer depends on the YET and
/// the layers' ELT sets + FinancialTerms, but not on LayerTerms or on the
/// coverage window (windows only filter inside the aggregate recurrence).
/// A request that differs from a captured run only in layer terms or
/// window can therefore skip the fetch + lookup + financial phases — ~78%
/// of runtime per Fig 6b — and replay the cached values through occurrence
/// terms + aggregation, bit-identical to a full run by construction
/// (capture copies the very doubles the full run computes).
///
/// Layout: layer-major, one double per YET event occurrence
/// (num_layers x total_events). Capture writes disjoint event ranges from
/// concurrent workers; replay is read-only, so one cache can serve many
/// concurrent replays.
class GroundUpLossCache {
 public:
  GroundUpLossCache(std::size_t num_layers, std::uint64_t total_events)
      : num_layers_(num_layers),
        total_events_(total_events),
        values_(num_layers * static_cast<std::size_t>(total_events), 0.0) {}

  std::size_t num_layers() const noexcept { return num_layers_; }
  std::uint64_t total_events() const noexcept { return total_events_; }

  double* layer_values(std::size_t layer_index) noexcept {
    return values_.data() + layer_index * static_cast<std::size_t>(total_events_);
  }
  const double* layer_values(std::size_t layer_index) const noexcept {
    return values_.data() + layer_index * static_cast<std::size_t>(total_events_);
  }

  std::size_t memory_bytes() const noexcept { return values_.size() * sizeof(double); }

  /// What a capture for this shape would cost — the admission-side check
  /// before allocating (layers x events x 8 B).
  static std::size_t estimate_bytes(std::size_t num_layers,
                                    std::uint64_t total_events) noexcept {
    return num_layers * static_cast<std::size_t>(total_events) * sizeof(double);
  }

 private:
  std::size_t num_layers_ = 0;
  std::uint64_t total_events_ = 0;
  std::vector<double> values_;
};

/// What the kernel computes per block — the cross-cutting knobs every
/// driver shares. Scheduling lives in KernelLaunch, not here.
struct TrialKernelConfig {
  /// Resolved lane type for the vectorized term phases. kScalar runs the
  /// same body one element at a time; kAuto resolves to the widest runnable
  /// extension, as resolve_simd_extension_ex() does.
  SimdExtension extension = SimdExtension::kScalar;

  /// Coverage window; absent or full-year = every occurrence counts.
  std::optional<CoverageWindow> window;

  /// Maximum trials per kernel block (AnalysisConfig::tile_trials). The
  /// staged per-event buffers are proportional to a block's event count, so
  /// blocks bound scratch memory. 0 = derive from the ELT footprint and
  /// events/trial (default_tile_trials).
  std::size_t block_trials = 0;

  /// When non-zero, the combine/occurrence phases stage at most this many
  /// events at a time (AnalysisConfig::chunk_size, the Fig-5a knob).
  /// 0 = stage the whole block at once. Never changes the output bytes.
  std::size_t event_chunk = 0;

  /// Capture: every block additionally copies its combined per-event losses
  /// (post-financial-terms, pre-occurrence-terms) into this cache. Workers
  /// write disjoint event ranges of the pre-sized buffer, so concurrent
  /// blocks are safe. The cache shape must match the run
  /// (portfolio layers x YET total events); the kernel constructor throws
  /// otherwise. Never changes the output bytes.
  GroundUpLossCache* ground_up_capture = nullptr;

  /// Replay (delta execution): skip the fetch/lookup/financial phases and
  /// read each layer's combined losses from this cache instead, then run
  /// occurrence terms + aggregation as usual. Produces exactly the bytes a
  /// full run with the same layer terms and window would — and performs
  /// zero ELT lookups (`elt.*.lookups` and `kernel.phase.lookup_ns` stay 0).
  /// Mutually exclusive with ground_up_capture; shape-checked like it.
  const GroundUpLossCache* ground_up_replay = nullptr;

  /// Cooperative cancellation: every run_range checks the token once per
  /// block (the kernel's natural preemption quantum) and, when cancelled,
  /// counts the blocks it will not run into `kernel.cancelled_blocks` and
  /// throws StatusError carrying the token's reason (kDeadlineExceeded /
  /// kCancelled). The resident service arms this with each quote's
  /// deadline; run_trial_kernel additionally chains an internal token so
  /// one worker's failure stops the others at their next block boundary.
  /// Null = never cancelled, zero per-block cost beyond a pointer test.
  const CancelToken* cancel = nullptr;
};

/// Per-worker scratch, reused across every block a worker executes (via
/// parallel::TaskScratch or a per-thread local): buffers grow to the block
/// high-water mark during the first blocks, then the hot path allocates
/// nothing.
struct TrialKernelScratch {
  std::vector<double> raw;       // one ELT's batch lookups for the block
  std::vector<double> combined;  // per-event combined loss, then net of occurrence terms
  std::vector<double> block_losses;  // sink mode: layers x block trials, emitted per block
};

/// The kernel: immutable per-run execution state (per-layer direct views,
/// broadcast terms, output rows) behind a lane-width-erased interface.
/// run_range() may be called concurrently on disjoint trial ranges, each
/// with its own scratch.
class TrialBlockKernel {
 public:
  /// Validates the portfolio and window, resolves the lane type and block
  /// size. Exactly one of `ylt` / `sink` must be non-null: with a YLT the
  /// kernel writes layer rows in place; with a sink it stages each finished
  /// block and emits it as one span per layer, blocks clamped so they never
  /// cross sink.block_trials() boundaries.
  TrialBlockKernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                   const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink);
  ~TrialBlockKernel();

  TrialBlockKernel(const TrialBlockKernel&) = delete;
  TrialBlockKernel& operator=(const TrialBlockKernel&) = delete;

  /// Computes trials [first, last) for every layer: walks the range in
  /// blocks of at most block_trials() (clamped to sink boundaries), software-
  /// prefetching the head of the next block's event ids while the current
  /// block computes.
  void run_range(std::uint64_t first, std::uint64_t last, TrialKernelScratch& scratch) const;

  /// The resolved block size (config.block_trials, or the footprint
  /// heuristic when that was 0).
  std::size_t block_trials() const noexcept;

  /// The extension this kernel actually executes: config.extension, or —
  /// for kAuto — the runtime dispatch decision (cpuid ∩ compiled-in, env
  /// override honored; see simd/dispatch.hpp). Never kAuto.
  SimdExtension extension() const noexcept { return extension_; }

  /// Lane-width erasure (public so the .cpp's extension-templated bodies
  /// can derive from it; opaque to callers).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
  SimdExtension extension_ = SimdExtension::kScalar;
};

/// How a driver schedules kernel blocks onto threads — together with
/// TrialKernelConfig this is the *entire* definition of an engine.
struct KernelLaunch {
  enum class Schedule {
    kSerial,  ///< one thread, one scratch (seq)
    kPool,    ///< parallel_for over trials on a thread pool (parallel)
    kCosted,  ///< parallel_for_costed over the YET offsets (fused): chunks
              ///< carry ~one block's worth of *events*, so skewed trial
              ///< lengths balance across workers
    kOpenMp,  ///< OpenMP `parallel for` over block indices; falls back to
              ///< kPool (bit-identical) when the build lacks OpenMP
  };

  Schedule schedule = Schedule::kSerial;
  /// Worker threads when the driver owns them; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Borrowed pool (kPool/kCosted); nullptr = own a pool of num_threads.
  parallel::ThreadPool* pool = nullptr;
  /// Trial-range partitioning (kPool: index chunks of `chunk` trials;
  /// kCosted: equal-cost chunks).
  parallel::Partition partition = parallel::Partition::kStatic;
  std::size_t chunk = 256;
};

/// The one entry point that runs the kernel: builds it and schedules it per
/// `launch`. Exactly one of `ylt` / `sink` must be non-null.
void run_trial_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                      const TrialKernelConfig& config, const KernelLaunch& launch,
                      YearLossTable* ylt, YltSink* sink);

/// The block-size heuristic behind TrialKernelConfig::block_trials == 0:
/// sizes the block so its staged per-event working set (~20 B per event
/// across ids, timestamps, and the combined-loss buffer) fits the cache
/// share a block can realistically claim. Cache-regime aware: when the portfolio's lookup
/// tables themselves fit in cache the whole budget goes to the block; once
/// the tables far exceed it, lookups miss regardless and a smaller block
/// keeps the staged buffers from thrashing too. Clamped to [16, 4096].
std::size_t default_tile_trials(const Portfolio& portfolio,
                                const yet::YearEventTable& yet_table) noexcept;

}  // namespace are::core
