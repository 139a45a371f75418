// Ablation: chunking on the CPU. The paper notes "a number of approaches
// were attempted, including the chunking method described later for GPUs,
// but were not successful in achieving a high speedup on our multi-core
// CPU". This bench compares the plain sequential engine against the
// chunked engine across chunk sizes on the host CPU: chunking should be
// roughly neutral (small scratch buffers stay in L1 either way), which is
// exactly the paper's finding.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

void cpu_plain(benchmark::State& state) {
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15);
  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, {.engine = core::EngineKind::kSequential});
    benchmark::DoNotOptimize(ylt);
  }
}

void cpu_chunked(benchmark::State& state) {
  const auto chunk = static_cast<std::size_t>(state.range(0));
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15);

  core::AnalysisConfig config;
  // The event-chunk knob on one scalar thread: the series the paper's CPU
  // chunking discussion measures.
  config.engine = core::EngineKind::kParallel;
  config.chunk_size = chunk;
  config.num_threads = 1;
  config.simd_extension = core::SimdExtension::kScalar;
  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, config);
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["chunk"] = static_cast<double>(chunk);
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_note(
      "CPU chunking ablation: the paper found chunking unhelpful on the "
      "CPU (its benefit is a GPU shared-memory effect). Expect the chunked "
      "rows to bracket the plain row within ~20%.");
  benchmark::RegisterBenchmark("ablation/cpu_plain", cpu_plain)->Unit(benchmark::kMillisecond);
  for (int chunk : {1, 4, 16, 64, 256}) {
    benchmark::RegisterBenchmark("ablation/cpu_chunked", cpu_chunked)
        ->Arg(chunk)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
