// The kernel's SIMD lane types vs. scalar lanes.
//
// The paper's Fig 6b attributes ~78% of aggregate-analysis time to ELT
// lookups and financial-term application — both data-parallel across
// trials. This bench measures how much of that the vectorized lanes
// (--simd-ext) recover on real hardware:
//
//   * simd/<ext>            — one thread of the parallel engine at each
//                             runnable lane width, vs seq and the scalar
//                             parallel / event-chunked runs on the Fig 2a
//                             direct-access workload
//   * simd_threads/<n>      — lanes x threads composition (lane
//                             parallelism inside each worker's trial block)
//   * generic lookup series — the non-gatherable (hash/sorted) path, where
//                             only the financial/layer phases vectorize
//
// The acceptance target is >= 2x over the sequential engine on the direct-access
// lookup path at Fig 2a scale on AVX2 hardware.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/simd_engine.hpp"
#include "simd/vec.hpp"

namespace {

using namespace are;
using bench::Scale;
using core::SimdExtension;

const Scale kScale = Scale::current();

// Fig 2a workload shape: one layer over 15 ELTs, direct-access tables.
constexpr std::size_t kEltsPerLayer = 15;

// Cache-resident variant: the same shape over a small (regional-peril)
// catalog whose 15 direct tables fit in L2 — the regime where lane
// parallelism pays fully, because out-of-cache runs are bound by miss
// latency that no lane width can hide (the paper's memory-access-bound
// conclusion, and why its scaling path is multi-core/GPU).
const Scale kCacheScale{/*catalog_size=*/20'000, kScale.trials, kScale.events_per_trial,
                        /*elt_entries=*/2'000};

const yet::YearEventTable& shared_yet() {
  static const yet::YearEventTable table =
      bench::make_yet(kScale, kScale.trials / 4, kScale.events_per_trial);
  return table;
}

const yet::YearEventTable& cache_yet() {
  static const yet::YearEventTable table =
      bench::make_yet(kCacheScale, kCacheScale.trials / 4, kCacheScale.events_per_trial);
  return table;
}

const core::Portfolio& direct_portfolio() {
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, kEltsPerLayer);
  return portfolio;
}

const core::Portfolio& cache_portfolio() {
  static const core::Portfolio portfolio = bench::make_portfolio(kCacheScale, 1, kEltsPerLayer);
  return portfolio;
}

const core::Portfolio& generic_portfolio() {
  static const core::Portfolio portfolio =
      bench::make_portfolio(kScale, 1, kEltsPerLayer, elt::LookupKind::kRobinHood);
  return portfolio;
}

void engine_sequential(benchmark::State& state) {
  for (auto _ : state) {
    auto ylt = bench::run(direct_portfolio(), shared_yet(), {.engine = core::EngineKind::kSequential});
    benchmark::DoNotOptimize(ylt);
  }
}

void engine_parallel(benchmark::State& state) {
  for (auto _ : state) {
    auto ylt = bench::run(direct_portfolio(), shared_yet(),
                          {.engine = core::EngineKind::kParallel,
                           .simd_extension = SimdExtension::kScalar});
    benchmark::DoNotOptimize(ylt);
  }
}

void engine_chunked(benchmark::State& state) {
  for (auto _ : state) {
    auto ylt = bench::run(direct_portfolio(), shared_yet(),
                          {.engine = core::EngineKind::kParallel,
                           .num_threads = 1,
                           .chunk_size = 4,
                           .simd_extension = SimdExtension::kScalar});
    benchmark::DoNotOptimize(ylt);
  }
}

void engine_simd(benchmark::State& state, SimdExtension extension, bool direct) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kParallel;
  config.num_threads = 1;
  config.simd_extension = extension;
  const core::Portfolio& portfolio = direct ? direct_portfolio() : generic_portfolio();
  for (auto _ : state) {
    auto ylt = bench::run(portfolio, shared_yet(), config);
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["lanes"] = static_cast<double>(core::simd_lane_width(extension));
}

void engine_sequential_cached(benchmark::State& state) {
  for (auto _ : state) {
    auto ylt = bench::run(cache_portfolio(), cache_yet(), {.engine = core::EngineKind::kSequential});
    benchmark::DoNotOptimize(ylt);
  }
}

void engine_simd_cached(benchmark::State& state, SimdExtension extension) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kParallel;
  config.num_threads = 1;
  config.simd_extension = extension;
  for (auto _ : state) {
    auto ylt = bench::run(cache_portfolio(), cache_yet(), config);
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["lanes"] = static_cast<double>(core::simd_lane_width(extension));
}

void engine_simd_threads(benchmark::State& state) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kParallel;
  config.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto ylt = bench::run(direct_portfolio(), shared_yet(), config);
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  const core::SimdResolution resolved = core::resolve_simd_extension_ex(
      direct_portfolio(), {config.num_threads, config.simd_extension});
  state.counters["lanes"] = static_cast<double>(core::simd_lane_width(resolved.extension));
}

void engine_sequential_generic(benchmark::State& state) {
  for (auto _ : state) {
    auto ylt = bench::run(generic_portfolio(), shared_yet(), {.engine = core::EngineKind::kSequential});
    benchmark::DoNotOptimize(ylt);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_note(
      "SIMD lane types on the Fig 2a workload shape (1 layer x 15 "
      "direct-access ELTs). Two regimes: 'simd/' runs the standard catalog "
      "(tables far exceed L2 -> memory-access bound, so lanes gain less "
      "over scalar), 'simd_cached/' runs a "
      "regional-peril catalog with L2-resident tables, where AVX2 exceeds "
      "the >= 2x-over-sequential acceptance target.");
  bench::print_note(
      (std::string("widest compiled extension: ") + std::string(are::simd::kBestName) + ", " +
       std::to_string(are::simd::kBestLanes) + " double lanes")
          .c_str());
  if (!bench::full_scale()) {
    bench::print_note("calibrated sub-scale; set ARE_BENCH_FULL=1 for paper scale");
  }

  benchmark::RegisterBenchmark("simd/sequential", engine_sequential)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("simd/parallel", engine_parallel)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("simd/chunked", engine_chunked)->Unit(benchmark::kMillisecond);

  for (const SimdExtension extension :
       {SimdExtension::kScalar, SimdExtension::kSse2, SimdExtension::kAvx2,
        SimdExtension::kAvx512, SimdExtension::kNeon}) {
    if (!core::simd_extension_available(extension)) continue;
    const std::string name = "simd/simd_" + std::string(core::to_string(extension));
    benchmark::RegisterBenchmark(name.c_str(), engine_simd, extension, /*direct=*/true)
        ->Unit(benchmark::kMillisecond);
  }

  // Cache-resident ELTs: where the >= 2x acceptance target is met.
  benchmark::RegisterBenchmark("simd_cached/sequential", engine_sequential_cached)
      ->Unit(benchmark::kMillisecond);
  for (const SimdExtension extension :
       {SimdExtension::kScalar, SimdExtension::kSse2, SimdExtension::kAvx2,
        SimdExtension::kAvx512, SimdExtension::kNeon}) {
    if (!core::simd_extension_available(extension)) continue;
    const std::string name = "simd_cached/simd_" + std::string(core::to_string(extension));
    benchmark::RegisterBenchmark(name.c_str(), engine_simd_cached, extension)
        ->Unit(benchmark::kMillisecond);
  }

  // simd x threads composition: lane parallelism inside each worker.
  for (const int threads : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark("simd/simd_threads", engine_simd_threads)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond);
  }

  // Non-gatherable lookup path: only financial/layer phases vectorize.
  benchmark::RegisterBenchmark("simd/sequential_robinhood", engine_sequential_generic)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("simd/simd_robinhood", engine_simd, SimdExtension::kAuto,
                               /*direct=*/false)
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
