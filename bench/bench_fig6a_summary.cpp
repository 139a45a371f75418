// Figure 6a: total time for each implementation at its best tuning on the
// paper workload (1M trials x 1000 events x 15 ELTs):
//   sequential CPU  ~325 s (implied by 2.6x at 8 threads = 125 s)
//   OpenMP 8-core   ~125 s
//   basic GPU        38.47 s (3.2x over multicore)
//   optimised GPU    22.72 s (5.4x over multicore, ~15x over sequential)
//
// The CPU bars come from the perfmodel roofline (plus a measured series on
// this host); the GPU bars come from the simgpu device model.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "core/engine_registry.hpp"
#include "perfmodel/cpu_model.hpp"
#include "simgpu/kernel_model.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

/// One measured series per engine: the sweep is a loop over the
/// EngineRegistry's four schedules.
void summary_measured(benchmark::State& state, const core::AnalysisConfig& config) {
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials, kScale.events_per_trial);
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15);

  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, config);
    benchmark::DoNotOptimize(ylt);
  }
}

void print_model_summary() {
  const auto machine = perfmodel::MachineSpec::core_i7_2600();
  const auto device = simgpu::DeviceSpec::tesla_c2075();
  simgpu::WorkloadShape shape;
  shape.num_trials = 1'000'000;
  shape.events_per_trial = 1000.0;
  shape.elts_per_layer = 15.0;

  const double seq = perfmodel::predict_cpu_time(1'000'000, 1000.0, 15.0, 1, machine, 1).seconds;
  const double omp = perfmodel::predict_cpu_time(1'000'000, 1000.0, 15.0, 1, machine, 8).seconds;
  const double gpu_basic = simgpu::estimate_basic_kernel(device, shape, 256).seconds;
  const double gpu_opt = simgpu::estimate_chunked_kernel(device, shape, 192, 4).seconds;

  bench::print_note("Fig 6a model summary, paper workload:");
  bench::print_row("fig6a_model", "variant", 0, "sequential_seconds", seq);
  bench::print_row("fig6a_model", "variant", 1, "multicore8_seconds", omp);
  bench::print_row("fig6a_model", "variant", 2, "gpu_basic_seconds", gpu_basic);
  bench::print_row("fig6a_model", "variant", 3, "gpu_optimised_seconds", gpu_opt);
  std::printf("[note] ratios: basic GPU %.1fx vs multicore (paper 3.2x); optimised %.1fx "
              "(paper 5.4x); optimised %.1fx vs sequential (paper ~15x)\n",
              omp / gpu_basic, omp / gpu_opt, seq / gpu_opt);
}

}  // namespace

int main(int argc, char** argv) {
  print_model_summary();
  if (!bench::full_scale()) {
    bench::print_note("measured series at calibrated sub-scale; ARE_BENCH_FULL=1 for paper scale");
  }
  for (const auto& engine : core::EngineRegistry::global().descriptors()) {
    core::AnalysisConfig config;
    config.engine = engine.kind;
    const std::string name = "fig6a/measured_" + engine.name;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [config](benchmark::State& s) { summary_measured(s, config); })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
