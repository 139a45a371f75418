// Runtime SIMD dispatch cost.
//
// Does the load-time dispatch layer cost anything? The fused kernel is
// measured twice on the same workload: with the extension pinned to the
// host's best (what a -march=native build would inline) and with kAuto
// (the runtime cpuid decision). kAuto resolves to the pinned extension
// before the kernel is built, so both runs execute the same kernel and the
// gap between their walls is host noise. What kAuto adds is the resolution
// itself: core::resolve_simd_extension_ex with kAuto plus the kernel
// constructor's best_simd_extension(). That pair is timed on its own,
// averaged over kResolveCalls calls, and stated as a share of the pinned
// run's wall. Acceptance: under 2% — dispatch is a one-time choice per
// run, not a per-trial branch.
//
// Every point lands in BENCH_dispatch.json for the CI perf-trajectory
// artifact.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/simd_engine.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace are;
using bench::Scale;
using Clock = std::chrono::steady_clock;

const Scale kScale = Scale::current();

// Cache-resident regime: regional-peril catalog, tables fit in L2.
const Scale kCacheScale{/*catalog_size=*/20'000, kScale.trials, kScale.events_per_trial,
                        /*elt_entries=*/2'000};

constexpr int kResolveCalls = 200'000;

double measure_engine_seconds(const core::Portfolio& portfolio,
                              const yet::YearEventTable& yet_table,
                              const core::AnalysisConfig& config) {
  const int reps = bench::full_scale() ? 1 : 3;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    auto ylt = bench::run(portfolio, yet_table, config);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    volatile double sink = ylt.at(0, 0);
    (void)sink;
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Mean seconds of what one kAuto run does that a pinned run does not:
/// core::run's resolution of kAuto and the kernel constructor's lookup of
/// the extension it runs.
double measure_auto_resolution_seconds(const core::Portfolio& portfolio,
                                       std::size_t num_threads) {
  volatile std::size_t sink = 0;
  const auto start = Clock::now();
  for (int call = 0; call < kResolveCalls; ++call) {
    const core::SimdResolution resolved = core::resolve_simd_extension_ex(
        portfolio, {num_threads, core::SimdExtension::kAuto});
    sink = sink + resolved.note.size() + static_cast<std::size_t>(resolved.extension) +
           static_cast<std::size_t>(core::best_simd_extension());
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  (void)sink;
  return seconds / kResolveCalls;
}

void bench_dispatch_overhead(bench::JsonReport& report) {
  const core::Portfolio portfolio = bench::make_portfolio(kCacheScale, 1, 15);
  const yet::YearEventTable yet_table =
      bench::make_yet(kCacheScale, kCacheScale.trials / 4, kCacheScale.events_per_trial);

  // Pin what kAuto resolves to: the host's best runnable extension.
  const core::SimdExtension pinned = core::best_simd_extension();

  core::AnalysisConfig pinned_config{.engine = core::EngineKind::kFused};
  pinned_config.simd_extension = pinned;
  core::AnalysisConfig auto_config{.engine = core::EngineKind::kFused};
  auto_config.simd_extension = core::SimdExtension::kAuto;

  const double pinned_seconds = measure_engine_seconds(portfolio, yet_table, pinned_config);
  const double auto_seconds = measure_engine_seconds(portfolio, yet_table, auto_config);
  const double resolve_seconds =
      measure_auto_resolution_seconds(portfolio, auto_config.num_threads);
  const double overhead_pct =
      pinned_seconds > 0.0 ? resolve_seconds / pinned_seconds * 100.0 : 0.0;

  bench::print_row("dispatch_overhead", "pinned_seconds", pinned_seconds, "auto_seconds",
                   auto_seconds);
  std::printf(
      "[note] dispatch overhead: %.4f%% (kAuto resolution %.0f ns, mean of %d calls, against "
      "the pinned run's %.3f ms; pinned=%s; acceptance < 2%%)\n",
      overhead_pct, resolve_seconds * 1e9, kResolveCalls, pinned_seconds * 1e3,
      std::string(to_string(pinned)).c_str());
  report.add("dispatch_cache", "fused_pinned_" + std::string(to_string(pinned)), pinned_seconds,
             1.0);
  report.add("dispatch_cache", "fused_auto", auto_seconds,
             auto_seconds > 0.0 ? pinned_seconds / auto_seconds : 0.0,
             "\"dispatch_overhead_pct\": " + std::to_string(overhead_pct) +
                 ", \"auto_resolve_ns\": " + std::to_string(resolve_seconds * 1e9));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_flag(&argc, argv, "BENCH_dispatch.json");
  if (!bench::full_scale()) {
    bench::print_note("calibrated sub-scale; set ARE_BENCH_FULL=1 for paper scale");
  }
  std::printf("[note] runtime dispatch: auto runs %s (%s)\n",
              std::string(simd::name_of(simd::best_extension())).c_str(),
              simd::best_extension_reason().c_str());

  bench::JsonReport report;
  bench_dispatch_overhead(report);

  if (report.write(json_path)) {
    std::printf("[note] wrote %zu records to %s\n", report.size(), json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
