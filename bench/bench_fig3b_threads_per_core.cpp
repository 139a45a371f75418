// Figure 3b: runtime vs. total software threads with all cores in use.
// The paper runs 8 hardware threads with 1..256 software threads per core
// and observes a modest gain (135 s -> 125 s) that then flattens.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "perfmodel/cpu_model.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

void fig3b_measured(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials, kScale.events_per_trial);
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15);

  core::AnalysisConfig config;
  config.engine = core::EngineKind::kParallel;
  config.num_threads = threads;
  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, config);
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["total_threads"] = static_cast<double>(threads);
}

void print_model_series() {
  const perfmodel::MachineSpec machine = perfmodel::MachineSpec::core_i7_2600();
  bench::print_note("perfmodel i7-2600 prediction, 8 cores, varying threads/core:");
  for (int per_core : {1, 2, 8, 32, 128, 256}) {
    const auto prediction =
        perfmodel::predict_cpu_time(1'000'000, 1000.0, 15.0, 1, machine, 8 * per_core);
    bench::print_row("fig3b_model", "threads_per_core", per_core, "seconds",
                     prediction.seconds);
  }
  bench::print_note("paper reference: 135 s at 1 thread/core -> 125 s at 256/core, then flat");
}

}  // namespace

int main(int argc, char** argv) {
  print_model_series();
  if (!bench::full_scale()) {
    bench::print_note("measured series at calibrated sub-scale; ARE_BENCH_FULL=1 for paper scale");
  }
  for (int threads : {8, 16, 64, 256, 2048}) {
    benchmark::RegisterBenchmark("fig3b/measured_total_threads", fig3b_measured)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
