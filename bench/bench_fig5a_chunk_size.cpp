// Figure 5a: optimised (chunked) GPU kernel runtime vs. chunk size.
// Paper: significant improvement by chunk 4 (22.72 s), flat up to 12,
// rapid deterioration beyond as shared memory overflows to global.
//
// Two series: the simgpu device-model prediction at paper scale, and the
// *measured* chunked CPU engine at bench scale (same code path, real
// buffers) to confirm the algorithmic equivalence of chunking.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "simgpu/kernel_model.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();
const simgpu::DeviceSpec kDevice = simgpu::DeviceSpec::tesla_c2075();

simgpu::WorkloadShape paper_workload() {
  simgpu::WorkloadShape shape;
  shape.num_trials = 1'000'000;
  shape.events_per_trial = 1000.0;
  shape.elts_per_layer = 15.0;
  return shape;
}

void fig5a_measured_cpu(benchmark::State& state) {
  const auto chunk = static_cast<std::size_t>(state.range(0));
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 4, kScale.events_per_trial);
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
      "Fig 5a reproduction: chunked kernel vs chunk size at 64 threads/"
      "block (so chunk 12 exactly fills the SM's 48KB shared memory).");
  for (int chunk : {1, 2, 4, 6, 8, 10, 12, 13, 14, 16, 20, 24}) {
    const auto estimate = simgpu::estimate_chunked_kernel(kDevice, paper_workload(), 64, chunk);
    bench::print_row("fig5a_model", "chunk", chunk, "seconds", estimate.seconds);
  }
  bench::print_note(
      "paper reference: 22.72 s plateau from chunk 4 to 12 (1.7x over the "
      "38.47 s basic kernel), rapid deterioration past 12");

  if (!bench::full_scale()) {
    bench::print_note("measured CPU series at calibrated sub-scale");
  }
  for (int chunk : {1, 2, 4, 8, 12, 16, 32, 128}) {
    benchmark::RegisterBenchmark("fig5a/measured_cpu_chunk", fig5a_measured_cpu)
        ->Arg(chunk)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
