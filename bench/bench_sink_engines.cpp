// Sink-capable engines: materialized vs sharded execution per engine. The
// kernel refactor made every engine sink-capable, so this bench tracks two
// things run over run: (1) the per-engine cost of emitting through a
// YltSink instead of writing an owned table (unlimited budget = pure
// sharding overhead), and (2) the cost under a tight budget that forces
// spill-and-restore cycles. Records land in BENCH_sinks.json (--json PATH),
// uploaded by CI alongside BENCH_fused.json / BENCH_sharded.json.
//
// Like bench_sharded_ylt the workload is lookup-light: the axis under test
// is output placement, not lookup throughput.
#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "core/engine_registry.hpp"
#include "shard/sharded_run.hpp"

namespace {

using namespace are;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNumLayers = 2;
constexpr double kEventsPerTrial = 8.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string store_extra(const shard::ShardStoreStats& stats) {
  return "\"spills\": " + std::to_string(stats.spills) +
         ", \"faults\": " + std::to_string(stats.faults) +
         ", \"peak_resident_bytes\": " + std::to_string(stats.peak_resident_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_flag(&argc, argv, "BENCH_sinks.json");
  if (!bench::full_scale()) {
    bench::print_note("calibrated sub-scale; set ARE_BENCH_FULL=1 for paper scale");
  }

  const std::uint64_t trials = bench::full_scale() ? 2'000'000 : 100'000;
  const bench::Scale scale{/*catalog_size=*/20'000, trials, kEventsPerTrial,
                           /*elt_entries=*/2'000};
  const core::Portfolio portfolio = bench::make_portfolio(scale, kNumLayers, 2);
  const auto yet_table = bench::make_yet(scale, trials, kEventsPerTrial);
  const std::string workload = "trials_" + std::to_string(trials);
  // A quarter of the YLT resident: every run under this budget must spill.
  const std::size_t budget_bytes =
      static_cast<std::size_t>(trials) * kNumLayers * sizeof(double) / 4;
  const std::uint64_t shard_trials = trials / 16;

  // Sequential materialized reference for the speedup column.
  auto start = Clock::now();
  auto seq_ylt = bench::run(portfolio, yet_table, {.engine = core::EngineKind::kSequential});
  const double seq_seconds = seconds_since(start);
  volatile double guard = seq_ylt.at(0, 0);
  (void)guard;

  bench::JsonReport report;
  for (const auto& engine : core::EngineRegistry::global().descriptors()) {
    core::AnalysisConfig config;
    config.engine = engine.kind;

    start = Clock::now();
    auto materialized = core::run({portfolio, yet_table, config});
    const double materialized_seconds = seconds_since(start);
    guard = materialized.at(0, 0);
    report.add(workload, engine.name + "_materialized", materialized_seconds,
               materialized_seconds > 0.0 ? seq_seconds / materialized_seconds : 0.0);

    // Sharded, unlimited budget: pure sink/emit overhead.
    config.output = core::OutputMode::kSharded;
    config.sharding.shard_trials = shard_trials;
    start = Clock::now();
    {
      auto sharded = shard::run_sharded({portfolio, yet_table, config});
      const double sharded_seconds = seconds_since(start);
      report.add(workload, engine.name + "_sharded_unlimited", sharded_seconds,
                 sharded_seconds > 0.0 ? seq_seconds / sharded_seconds : 0.0,
                 store_extra(sharded.stats()));
    }

    // Sharded under the forced-spill budget.
    config.sharding.memory_budget_bytes = budget_bytes;
    start = Clock::now();
    auto sharded = shard::run_sharded({portfolio, yet_table, config});
    const double sharded_seconds = seconds_since(start);
    const shard::ShardStoreStats stats = sharded.stats();
    report.add(workload, engine.name + "_sharded_budget", sharded_seconds,
               sharded_seconds > 0.0 ? seq_seconds / sharded_seconds : 0.0,
               store_extra(stats));
    bench::print_row("sink_engines", "engine", 0.0,
                     (engine.name + "_sharded_budget_seconds").c_str(), sharded_seconds);
    if (stats.spills == 0) {
      std::fprintf(stderr, "bench_sink_engines: engine '%s' never spilled under the budget\n",
                   engine.name.c_str());
      return 1;
    }
  }

  if (report.write(json_path)) {
    std::printf("[note] wrote %zu records to %s\n", report.size(), json_path.c_str());
  } else {
    std::fprintf(stderr, "bench_sink_engines: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
