#include "core/trial_kernel.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/kernel_ext.hpp"
#include "core/trial_kernel_body.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/task_scratch.hpp"

namespace are::core {

namespace {

/// The runtime dispatch table behind kernel construction. The scalar
/// instantiation lives in THIS translation unit (compiled with the default
/// flags — it must run anywhere the binary loads); every wider extension
/// routes to the factory in its own src/core/kernel_ext_*.cpp TU, present
/// exactly when CMake defined the matching ARE_KERNEL_TU_* macro. Callers
/// reach a wide factory only for extensions simd_extension_available()
/// reports runnable (the constructor and resolve_simd_extension_ex guard), so
/// a host never executes instructions its cpuid did not report.
std::unique_ptr<TrialBlockKernel::Impl> make_impl(SimdExtension extension,
                                                  const Portfolio& portfolio,
                                                  const yet::YearEventTable& yet_table,
                                                  const TrialKernelConfig& config,
                                                  YearLossTable* ylt, YltSink* sink) {
  switch (extension) {
    case SimdExtension::kScalar:
      return std::make_unique<KernelImpl<simd::scalar_ext>>(portfolio, yet_table, config, ylt,
                                                            sink);
#if defined(ARE_KERNEL_TU_SSE2)
    case SimdExtension::kSse2:
      return detail::make_kernel_impl_sse2(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_AVX2)
    case SimdExtension::kAvx2:
      return detail::make_kernel_impl_avx2(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_AVX512)
    case SimdExtension::kAvx512:
      return detail::make_kernel_impl_avx512(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_NEON)
    case SimdExtension::kNeon:
      return detail::make_kernel_impl_neon(portfolio, yet_table, config, ylt, sink);
#endif
    default:
      throw std::invalid_argument("trial kernel: simd extension '" +
                                  std::string(to_string(extension)) +
                                  "' is not compiled into this binary");
  }
}

}  // namespace

TrialBlockKernel::TrialBlockKernel(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table,
                                   const TrialKernelConfig& config, YearLossTable* ylt,
                                   YltSink* sink) {
  portfolio.validate();
  if (config.window) config.window->validate();
  if ((ylt == nullptr) == (sink == nullptr)) {
    throw std::invalid_argument("trial kernel: exactly one of YLT / sink must be given");
  }
  if (config.ground_up_capture != nullptr && config.ground_up_replay != nullptr) {
    throw std::invalid_argument(
        "trial kernel: ground_up_capture and ground_up_replay are mutually exclusive");
  }
  const auto check_cache_shape = [&](const GroundUpLossCache& cache, const char* which) {
    if (cache.num_layers() != portfolio.layers.size() ||
        cache.total_events() != yet_table.total_events()) {
      throw std::invalid_argument(
          std::string("trial kernel: ") + which + " cache shape (" +
          std::to_string(cache.num_layers()) + " layers x " +
          std::to_string(cache.total_events()) + " events) does not match the run (" +
          std::to_string(portfolio.layers.size()) + " layers x " +
          std::to_string(yet_table.total_events()) + " events)");
    }
  };
  if (config.ground_up_capture != nullptr) {
    check_cache_shape(*config.ground_up_capture, "ground-up capture");
  }
  if (config.ground_up_replay != nullptr) {
    check_cache_shape(*config.ground_up_replay, "ground-up replay");
  }
  SimdExtension extension = config.extension;
  if (extension == SimdExtension::kAuto) {
    extension = best_simd_extension();
  } else if (!simd_extension_available(extension)) {
    // Explicit requests are checked against the RUNTIME capability (cpuid ∩
    // compiled-in) before any wide factory runs — an unrunnable extension
    // must fail with a diagnosable error, never an illegal instruction.
    throw std::invalid_argument("trial kernel: simd extension '" +
                                std::string(to_string(extension)) +
                                "' is not compiled into this binary or not supported by this "
                                "host's cpu");
  }
  extension_ = extension;
  impl_ = make_impl(extension, portfolio, yet_table, config, ylt, sink);
  impl_->block_trials = config.block_trials != 0 ? config.block_trials
                                                 : default_tile_trials(portfolio, yet_table);
}

TrialBlockKernel::~TrialBlockKernel() = default;

void TrialBlockKernel::run_range(std::uint64_t first, std::uint64_t last,
                                 TrialKernelScratch& scratch) const {
  if (first >= last) return;
  impl_->run_range(first, last, scratch);
}

std::size_t TrialBlockKernel::block_trials() const noexcept { return impl_->block_trials; }

// --- The driver entry point ---------------------------------------------------

void run_trial_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                      const TrialKernelConfig& config, const KernelLaunch& launch,
                      YearLossTable* ylt, YltSink* sink) {
  // The kernel polls a driver-internal token chained to the caller's: a
  // worker that fails (spill error, alloc, deadline) cancels it, and every
  // other worker stops at its next block boundary instead of grinding out
  // an answer nobody will read. The caller's token still supplies the
  // reason when IT fires (chained tokens adopt the parent's reason).
  CancelToken abort(config.cancel);
  TrialKernelConfig kernel_config = config;
  kernel_config.cancel = &abort;
  const TrialBlockKernel kernel(portfolio, yet_table, kernel_config, ylt, sink);
  const std::uint64_t num_trials = yet_table.num_trials();
  if (num_trials == 0) return;

  obs::Span launch_span("kernel.launch", "kernel");
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    registry.counter("kernel.launches").increment();
    // Which extension actually executed, per launch — the runtime dispatch
    // decision made observable (exported to /metrics and --telemetry like
    // every other name-embedded label family).
    registry
        .counter("kernel.simd_ext{ext=" + std::string(to_string(kernel.extension())) + "}")
        .increment();
  }

  KernelLaunch::Schedule schedule = launch.schedule;
#ifndef _OPENMP
  // No OpenMP in this build: the bit-identical thread-pool fallback runs
  // (surfaced to callers via InstrumentationSink::openmp_used).
  if (schedule == KernelLaunch::Schedule::kOpenMp) schedule = KernelLaunch::Schedule::kPool;
#endif

  switch (schedule) {
    case KernelLaunch::Schedule::kSerial: {
      TrialKernelScratch scratch;
      kernel.run_range(0, num_trials, scratch);
      break;
    }
    case KernelLaunch::Schedule::kPool:
    case KernelLaunch::Schedule::kCosted: {
      std::optional<parallel::ThreadPool> owned;
      parallel::ThreadPool& pool =
          launch.pool != nullptr ? *launch.pool : owned.emplace(launch.num_threads);
      parallel::TaskScratch<TrialKernelScratch> scratches(pool);
      // Pool tasks must not throw (an escaping exception terminates, by
      // pool design): the body catches everything, keeps the FIRST failure,
      // cancels the shared token so sibling tasks wind down at their next
      // block, and the driver rethrows once the launch has drained.
      std::mutex failure_mutex;
      std::exception_ptr failure;
      const auto body = [&](std::uint64_t first, std::uint64_t last) {
        try {
          kernel.run_range(first, last, scratches.local());
        } catch (...) {
          {
            std::lock_guard<std::mutex> guard(failure_mutex);
            if (!failure) failure = std::current_exception();
          }
          abort.cancel();
        }
      };
      if (schedule == KernelLaunch::Schedule::kPool) {
        parallel::parallel_for(pool, 0, num_trials, body, {launch.partition, launch.chunk});
      } else {
        // Chunks carry ~one block's worth of events (the YET offsets are
        // the cost prefix), so skewed trial lengths spread across workers.
        const double mean_events = std::max(1.0, yet_table.mean_events_per_trial());
        const std::uint64_t chunk_cost = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(kernel.block_trials()) *
                                          mean_events));
        parallel::parallel_for_costed(pool, 0, num_trials, yet_table.offsets(), chunk_cost,
                                      body, launch.partition);
      }
      if (failure) std::rethrow_exception(failure);
      break;
    }
    case KernelLaunch::Schedule::kOpenMp: {
#ifdef _OPENMP
      int num_threads = static_cast<int>(launch.num_threads);
      if (num_threads <= 0) num_threads = omp_get_max_threads();
      const std::uint64_t block = kernel.block_trials();
      const auto num_blocks = static_cast<std::int64_t>((num_trials + block - 1) / block);
      // Exceptions may not escape an OpenMP region: same first-failure +
      // shared-token protocol as the pool path, rethrown after the join.
      std::mutex failure_mutex;
      std::exception_ptr failure;
#pragma omp parallel num_threads(num_threads)
      {
        TrialKernelScratch scratch;
#pragma omp for schedule(static)
        for (std::int64_t b = 0; b < num_blocks; ++b) {
          try {
            const std::uint64_t first = static_cast<std::uint64_t>(b) * block;
            kernel.run_range(first, std::min<std::uint64_t>(first + block, num_trials),
                             scratch);
          } catch (...) {
            {
              std::lock_guard<std::mutex> guard(failure_mutex);
              if (!failure) failure = std::current_exception();
            }
            abort.cancel();
          }
        }
      }
      if (failure) std::rethrow_exception(failure);
#endif
      break;
    }
  }
}

std::size_t default_tile_trials(const Portfolio& portfolio,
                                const yet::YearEventTable& yet_table) noexcept {
  // Per staged event a block touches ~20 bytes across the batched phases:
  // the event id (4 B) + timestamp (4 B) + combined-loss entry (8 B), plus
  // amortised shares of the raw-lookup buffer on the generic path.
  constexpr double kBytesPerEvent = 20.0;
  constexpr std::size_t kCacheResident = std::size_t{2} << 20;

  std::size_t footprint = 0;
  for (const Layer& layer : portfolio.layers) {
    for (const LayerElt& layer_elt : layer.elts) {
      if (layer_elt.lookup) footprint += layer_elt.lookup->memory_bytes();
    }
  }
  // Cache-resident tables leave the whole budget to the block (the regime
  // where bench_fused_tiling measured ~256-trial optima at sub-scale); once
  // the tables far exceed the cache, lookups miss regardless and a smaller
  // block keeps the staged buffers from thrashing as well.
  const std::size_t block_budget =
      footprint <= kCacheResident ? (std::size_t{1} << 20) : (std::size_t{1} << 18);
  const double events = std::max(1.0, yet_table.mean_events_per_trial());
  const double block = static_cast<double>(block_budget) / (kBytesPerEvent * events);
  return std::clamp(static_cast<std::size_t>(block), std::size_t{16}, std::size_t{4096});
}

}  // namespace are::core
