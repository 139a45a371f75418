// Figure 6b: percentage of time in the four phases of the algorithm —
// fetching events, ELT lookup in the direct access table, financial term
// calculations, layer term calculations. The paper reports ~78% of the
// time in ELT lookups, the basis of its memory-bound analysis.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

void fig6b_instrumented(benchmark::State& state) {
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
  static const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15);

  core::InstrumentationSink sink;
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kSequential;
  config.instrumentation = &sink;
  config.collect_phases = true;
  core::PhaseBreakdown phases;
  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, config);
    phases = *sink.phases;
    benchmark::DoNotOptimize(ylt);
  }
  state.counters["fetch_pct"] = 100.0 * phases.fetch_fraction();
  state.counters["lookup_pct"] = 100.0 * phases.lookup_fraction();
  state.counters["financial_pct"] = 100.0 * phases.financial_fraction();
  state.counters["layer_pct"] = 100.0 * phases.layer_fraction();
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_note(
      "Fig 6b reproduction: phase breakdown of seq --phases "
      "(direct access tables, 15 ELTs).");

  // One up-front instrumented run with the breakdown printed as a series.
  {
    const auto yet_table = bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
    const auto portfolio = bench::make_portfolio(kScale, 1, 15);
    core::InstrumentationSink sink;
    core::AnalysisConfig config;
    config.engine = core::EngineKind::kSequential;
    config.instrumentation = &sink;
    config.collect_phases = true;
    bench::run(portfolio, yet_table, config);
    const core::PhaseBreakdown& phases = *sink.phases;
    bench::print_row("fig6b", "phase_fetch", 0, "percent", 100.0 * phases.fetch_fraction());
    bench::print_row("fig6b", "phase_lookup", 1, "percent", 100.0 * phases.lookup_fraction());
    bench::print_row("fig6b", "phase_financial", 2, "percent",
                     100.0 * phases.financial_fraction());
    bench::print_row("fig6b", "phase_layer", 3, "percent", 100.0 * phases.layer_fraction());
    bench::print_note("paper reference: ~78% ELT lookup; lookup must dominate all other phases");
  }

  benchmark::RegisterBenchmark("fig6b/instrumented", fig6b_instrumented)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
