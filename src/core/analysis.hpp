#pragma once

// Unified engine API — the single front door to the aggregate-analysis
// engines. The paper runs one algorithm sequentially, with OpenMP on
// multi-core CPUs, and chunked on GPUs; here every one of those is the
// shared trial-block kernel (core/trial_kernel.hpp) under one of three
// schedules. Callers build an AnalysisRequest (portfolio + YET +
// AnalysisConfig) and call run() or run_to_sink(). The schedule is
// EngineKind; everything else the kernel varies — lane type, event chunk,
// block size, coverage window — is a knob of AnalysisConfig
// that every engine honours, so an engine x knob sweep is a loop over
// configs and every point of it is bit-identical to scalar seq with the
// same window.

#include <cstddef>
#include <optional>
#include <string>

#include "core/cancel.hpp"
#include "core/coverage_window.hpp"
#include "core/engine.hpp"
#include "core/simd_engine.hpp"

namespace are::core {

class GroundUpLossCache;  // core/trial_kernel.hpp

/// Per-run facts written back through AnalysisConfig::instrumentation:
/// which engine actually executed, which SIMD lane type ran and why. Phase
/// timing and access counts are not here: they are the `kernel.phase.*_ns`
/// and `elt.*.lookups` counters a run records while telemetry is on
/// (obs::set_enabled).
struct InstrumentationSink {
  /// The engine that executed the request.
  std::optional<EngineKind> engine_used;

  /// The extension that actually executed after kAuto resolution — for
  /// parallel/fused the runtime dispatch decision (cpuid ∩ compiled-in,
  /// ARE_SIMD_EXT override); for seq, scalar.
  std::optional<SimdExtension> simd_extension_used;

  /// WHY that extension ran — explicit request, the env override, the
  /// cpuid / compiled-in cap, or seq's scalar reference. Mirrors
  /// core::resolve_simd_extension_ex().note; --verbose prints it.
  std::optional<std::string> simd_resolution_note;
};

/// Where the output YLT lives. kMaterialized is the classic in-memory
/// trials x layers YearLossTable returned by run(); kSharded stores losses
/// in fixed trial-range shards behind a disk-spilling ShardStore
/// (src/shard/) and is executed through shard::run_sharded / run_to_sink —
/// the out-of-core path for trial counts whose full table would not fit
/// the memory budget.
enum class OutputMode {
  kMaterialized = 0,
  kSharded,
};

/// Knobs of the sharded output mode (read when output == kSharded).
struct ShardingOptions {
  /// Trials per shard. Shard boundaries also clamp every engine's kernel
  /// blocks, so every finished block lands in exactly one shard.
  std::uint64_t shard_trials = 4096;
  /// Resident-shard budget in bytes; 0 = unlimited (nothing spills).
  std::size_t memory_budget_bytes = 0;
  /// Base directory for spilled shards (each run spills into its own
  /// unique subdirectory, removed afterwards); empty = the system temp
  /// dir.
  std::string spill_dir;
};

/// Composable execution configuration. One struct covers every engine, and
/// every engine honours every kernel knob below; run() rejects what it
/// cannot honour — a borrowed pool on seq, which runs serially, an
/// extension this host cannot run — and never silently ignores a field.
struct AnalysisConfig {
  EngineKind engine = EngineKind::kParallel;

  /// When non-empty, run() dispatches by this registry name ("seq",
  /// "parallel", "fused") instead of `engine`; an unknown name fails
  /// listing the three. The CLI and the service dispatch by name.
  std::string engine_name;

  /// Worker threads for kParallel and kFused: 0 = hardware concurrency,
  /// 1 = single-threaded. kSequential always runs on one.
  std::size_t num_threads = 0;

  /// Events the combine/occurrence phases stage at a time (the paper's
  /// GPU chunk-size knob, Fig 5a); 0 = the whole kernel block at once.
  std::size_t chunk_size = 0;

  /// Trials per kernel block (the tile every layer is processed over before
  /// the next block starts). 0 = derive from the ELT footprint and
  /// events/trial (core::default_tile_trials).
  std::size_t tile_trials = 0;

  /// Lane type of the kernel's vectorized phases. kAuto resolves, for
  /// parallel/fused, to the widest runnable extension
  /// (resolve_simd_extension_ex); seq stays scalar under kAuto, because it
  /// is the reference every other run is compared with. Every engine
  /// honours an explicit extension and rejects one that is not runnable
  /// here.
  SimdExtension simd_extension = SimdExtension::kAuto;

  /// Coverage window within the contractual year. Absent = full year.
  std::optional<CoverageWindow> window;

  /// When set, the engine records execution facts here. Borrowed, not
  /// owned.
  InstrumentationSink* instrumentation = nullptr;

  /// Output placement. run() serves kMaterialized only; kSharded runs go
  /// through shard::run_sharded (or run_to_sink with your own sink).
  OutputMode output = OutputMode::kMaterialized;
  ShardingOptions sharding;

  /// Borrowed thread pool, reused across runs (the real-time pricing path);
  /// requires an engine whose descriptor sets supports_pool_reuse
  /// (kParallel, kFused). nullptr = those engines start a pool per run.
  parallel::ThreadPool* pool = nullptr;

  /// Delta execution (core/trial_kernel.hpp GroundUpLossCache; the resident
  /// service's fast path — see src/service/). Capture: this run additionally
  /// records its combined pre-occurrence-terms losses into the cache (shape
  /// must be portfolio layers x YET total events). Replay: this run skips
  /// the lookup/financial phases and reads the combined losses in place
  /// from the cache — valid only when the portfolio's ELT sets and per-ELT
  /// FinancialTerms are unchanged since capture (LayerTerms and the window
  /// may differ), bit-identical to a cold run by construction. Any engine
  /// accepts either pointer (they parameterize the shared kernel); setting
  /// both is rejected. Borrowed, not owned.
  GroundUpLossCache* ground_up_capture = nullptr;
  const GroundUpLossCache* ground_up_replay = nullptr;

  /// Cooperative cancellation + deadline for this run (core/cancel.hpp).
  /// The kernel checks the token between trial blocks; a fired token makes
  /// the run throw core::StatusError with the token's reason
  /// (kDeadlineExceeded / kCancelled) and produce no output. Borrowed, not
  /// owned; null = never cancelled.
  const CancelToken* cancel = nullptr;

  /// Engine-independent sanity checks; throws std::invalid_argument on a
  /// malformed window, sharding.shard_trials == 0, or both ground-up
  /// pointers set (chunk_size == 0 and tile_trials == 0 are
  /// valid: the whole block, and the block-size heuristic). The pool check
  /// and extension availability happen in run(), which knows the engine.
  void validate() const;
};

/// Everything run() needs: the inputs by reference (portfolio and YET are
/// large and immutable during a run) plus the execution config by value.
struct AnalysisRequest {
  const Portfolio& portfolio;
  const yet::YearEventTable& yet_table;
  AnalysisConfig config{};
};

/// The front door: validates the config, resolves the engine through
/// EngineRegistry::global() (std::invalid_argument on an unknown engine or
/// a pool the engine cannot borrow), resolves the kernel's knobs, and runs
/// the kernel under the engine's schedule. Every engine and knob setting
/// produces the bytes of scalar EngineKind::kSequential with the same
/// window. Serves OutputMode::kMaterialized only — a sharded config is
/// redirected (by error message) to shard::run_sharded, which owns the
/// sharded table.
YearLossTable run(const AnalysisRequest& request);

/// Sink front door: same checks as run(), then the engine emits finished
/// trial-range blocks into `sink` instead of an owned YearLossTable —
/// exactly the bytes run() would have produced for every cell.
void run_to_sink(const AnalysisRequest& request, YltSink& sink);

}  // namespace are::core
