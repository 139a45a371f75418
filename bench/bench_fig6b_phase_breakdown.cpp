// Figure 6b: percentage of time in the phases of the algorithm — fetching
// events, ELT lookup, financial term calculations, layer term calculations.
// The paper reports ~78% of the time in ELT lookups, the basis of its
// memory-bound analysis.
//
// The split is read from the kernel.phase.*_ns counters that a telemetered
// run records on the production block loop (AnalysisConfig::telemetry), the
// same counters `are_cli run --phases` prints. On direct access tables the
// loop reads event ids inside its gathers and applies the per-ELT financial
// terms in the same pass, so the paper's lookup + financial share appears
// as one `combine` phase with zero fetch; a robin-hood book runs the
// generic lookup_many path and reports lookup and financial separately.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench_common.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

constexpr std::pair<const char*, const char*> kPhases[] = {
    {"fetch", "kernel.phase.fetch_ns"},   {"combine", "kernel.phase.combine_ns"},
    {"lookup", "kernel.phase.lookup_ns"}, {"financial", "kernel.phase.financial_ns"},
    {"layer", "kernel.phase.layer_ns"},   {"output", "kernel.phase.output_ns"},
};

const yet::YearEventTable& fig6b_yet() {
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
  return yet_table;
}

/// One seq run with the telemetry counters on, read from a zeroed registry.
obs::Snapshot telemetered_run(const core::Portfolio& portfolio) {
  obs::TelemetryRegistry::global().reset();
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kSequential;
  config.telemetry.counters = true;
  auto ylt = bench::run(portfolio, fig6b_yet(), config);
  benchmark::DoNotOptimize(ylt);
  return obs::TelemetryRegistry::global().snapshot();
}

double percent_of_phases(const obs::Snapshot& snapshot, const char* counter) {
  const auto total = static_cast<double>(snapshot.counter_sum("kernel.phase.", "_ns"));
  return total > 0.0 ? 100.0 * static_cast<double>(snapshot.counter_value(counter)) / total
                     : 0.0;
}

void fig6b(benchmark::State& state, elt::LookupKind kind) {
  const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15, kind);
  obs::Snapshot snapshot;
  for (auto _ : state) snapshot = telemetered_run(portfolio);
  for (const auto& [phase, counter] : kPhases) {
    state.counters[std::string(phase) + "_pct"] = percent_of_phases(snapshot, counter);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_note(
      "Fig 6b reproduction: phase breakdown of telemetered seq runs (15 ELTs), from the "
      "kernel.phase.* counters of the production block loop.");

  // One up-front run per table kind, the breakdown printed as a series
  // plus the share of kernel block time the phases account for.
  for (const elt::LookupKind kind : {elt::LookupKind::kDirectAccess, elt::LookupKind::kRobinHood}) {
    const obs::Snapshot snapshot = telemetered_run(bench::make_portfolio(kScale, 1, 15, kind));
    const std::string figure = "fig6b_" + std::string(elt::to_string(kind));
    double x = 0.0;
    for (const auto& [phase, counter] : kPhases) {
      bench::print_row(figure.c_str(), ("phase_" + std::string(phase)).c_str(), x++, "percent",
                       percent_of_phases(snapshot, counter));
    }
    const auto block_ns = static_cast<double>(snapshot.histogram_sum_ns("kernel.block_ns"));
    bench::print_row(figure.c_str(), "phases_over_block_time", x, "ratio",
                     static_cast<double>(snapshot.counter_sum("kernel.phase.", "_ns")) /
                         block_ns);
  }
  bench::print_note(
      "paper reference: ~78% ELT lookup; lookup (combine on direct tables) must dominate all "
      "other phases");

  benchmark::RegisterBenchmark("fig6b/direct_access", fig6b, elt::LookupKind::kDirectAccess)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig6b/robin_hood", fig6b, elt::LookupKind::kRobinHood)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
