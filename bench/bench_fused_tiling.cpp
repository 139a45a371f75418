// Fused trial-tiled engine: tile size in both cache regimes, plus the
// cross-engine comparison the acceptance target is stated against (fused
// >= 1.5x over the parallel engine on the cache-resident fig6a workload at
// max threads).
//
// Two workload shapes per regime:
//   * fig6a        — 1 layer x 15 ELTs, the paper's headline shape: the
//                    gains here come from batch lookups + vectorized terms
//                    + blocks balanced by event count (fused's static
//                    equal-cost partition).
//   * multilayer   — 4 layers x 8 ELTs: adds the loop-nest fusion gain
//                    (the YET streams once per analysis, not once per
//                    layer).
//
// Unlike the per-figure benches this binary times by hand (best of N
// steady_clock reps) instead of through google benchmark: every measured
// point also lands in a JSON report (--json PATH, default
// BENCH_fused.json) so CI archives the perf trajectory from this PR on.
#include <algorithm>
#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "core/engine_registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();
constexpr std::size_t kTiles[] = {16, 64, 256, 1024};

// Cache-resident variant: same shape over a regional-peril catalog whose
// direct tables fit in L2 (see bench_simd_engine for the regime rationale).
const Scale kCacheScale{/*catalog_size=*/20'000, kScale.trials, kScale.events_per_trial,
                        /*elt_entries=*/2'000};

struct Workload {
  std::string name;
  core::Portfolio portfolio;
  yet::YearEventTable yet_table;
  double sequential_seconds = 0.0;
};

double measure_seconds(const Workload& workload, const core::AnalysisConfig& config) {
  using Clock = std::chrono::steady_clock;
  const int reps = bench::full_scale() ? 1 : 3;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    auto ylt = bench::run(workload.portfolio, workload.yet_table, config);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    // Touch the result so the run cannot be elided.
    volatile double sink = ylt.at(0, 0);
    (void)sink;
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Measures one (workload, config) point, prints the series row, records
/// it in the JSON report, and returns the wall seconds.
double measure_point(Workload& workload, const std::string& engine_label,
                     const core::AnalysisConfig& config, bench::JsonReport& report) {
  const double seconds = measure_seconds(workload, config);
  const double speedup =
      seconds > 0.0 ? workload.sequential_seconds / seconds : 0.0;
  bench::print_row(("fused_" + workload.name).c_str(), "speedup", speedup,
                   (engine_label + "_seconds").c_str(), seconds);
  report.add(workload.name, engine_label, seconds, speedup);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_flag(&argc, argv, "BENCH_fused.json");
  if (!bench::full_scale()) {
    bench::print_note("calibrated sub-scale; set ARE_BENCH_FULL=1 for paper scale");
  }

  Workload workloads[] = {
      {"fig6a_cache", bench::make_portfolio(kCacheScale, 1, 15),
       bench::make_yet(kCacheScale, kCacheScale.trials / 4, kCacheScale.events_per_trial)},
      {"fig6a_memory", bench::make_portfolio(kScale, 1, 15),
       bench::make_yet(kScale, kScale.trials / 4, kScale.events_per_trial)},
      {"multilayer_cache", bench::make_portfolio(kCacheScale, 4, 8),
       bench::make_yet(kCacheScale, kCacheScale.trials / 4, kCacheScale.events_per_trial)},
      {"multilayer_memory", bench::make_portfolio(kScale, 4, 8),
       bench::make_yet(kScale, kScale.trials / 4, kScale.events_per_trial)},
  };

  bench::JsonReport report;
  double cache_fig6a_parallel = 0.0;
  double cache_fig6a_fused_best = 0.0;

  for (Workload& workload : workloads) {
    workload.sequential_seconds =
        measure_seconds(workload, {.engine = core::EngineKind::kSequential});
    report.add(workload.name, "seq", workload.sequential_seconds, 1.0);
    bench::print_row(("fused_" + workload.name).c_str(), "speedup", 1.0, "seq_seconds",
                     workload.sequential_seconds);

    // Reference engines at max threads (0 = hardware concurrency): the pool
    // schedule on scalar lanes ("parallel") and on kAuto's lanes ("simd").
    const double parallel_seconds =
        measure_point(workload, "parallel",
                      {.engine = core::EngineKind::kParallel,
                       .simd_extension = core::SimdExtension::kScalar},
                      report);
    if (workload.name == "fig6a_cache") cache_fig6a_parallel = parallel_seconds;
    measure_point(workload, "simd", {.engine = core::EngineKind::kParallel}, report);

    // The tile sweep at max threads.
    for (const std::size_t tile : kTiles) {
      core::AnalysisConfig config;
      config.engine = core::EngineKind::kFused;
      config.tile_trials = tile;
      const double seconds =
          measure_point(workload, "fused_t" + std::to_string(tile), config, report);
      if (workload.name == "fig6a_cache" &&
          (cache_fig6a_fused_best == 0.0 || seconds < cache_fig6a_fused_best)) {
        cache_fig6a_fused_best = seconds;
      }
    }
  }

  if (cache_fig6a_parallel > 0.0 && cache_fig6a_fused_best > 0.0) {
    std::printf("[note] acceptance: fused best %.1fx over parallel on fig6a_cache "
                "(target >= 1.5x)\n",
                cache_fig6a_parallel / cache_fig6a_fused_best);
  }

  // Telemetry overhead A/B on the cache-resident fig6a shape (the regime
  // where per-block bookkeeping would show first): the default fused
  // config, counters+spans off vs. on. Acceptance: <= 2% overhead.
  {
    Workload& cache_workload = workloads[0];
    core::AnalysisConfig fused_config;
    fused_config.engine = core::EngineKind::kFused;
    const double off_seconds = measure_seconds(cache_workload, fused_config);
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const double on_seconds = measure_seconds(cache_workload, fused_config);
    obs::set_trace_enabled(false);  // counters stay on to stamp the A/B's
                                    // snapshot into the "on" record
    report.add(cache_workload.name, "fused_telemetry_off", off_seconds,
               off_seconds > 0.0 ? cache_workload.sequential_seconds / off_seconds : 0.0);
    report.add(cache_workload.name, "fused_telemetry_on", on_seconds,
               on_seconds > 0.0 ? cache_workload.sequential_seconds / on_seconds : 0.0,
               bench::telemetry_extra());
    obs::set_enabled(false);
    std::printf("[note] telemetry overhead on fig6a_cache (fused): off %.4fs, on %.4fs "
                "(%+.1f%%; target <= 2%%)\n",
                off_seconds, on_seconds,
                off_seconds > 0.0 ? 100.0 * (on_seconds - off_seconds) / off_seconds : 0.0);
  }
  if (report.write(json_path)) {
    std::printf("[note] wrote %zu records to %s\n", report.size(), json_path.c_str());
  } else {
    std::fprintf(stderr, "bench_fused_tiling: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
