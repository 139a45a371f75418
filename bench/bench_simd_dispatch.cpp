// Runtime SIMD dispatch cost + gathered hash probing throughput.
//
// Two questions from the dispatch PR, answered with wall-clock numbers:
//
//   1. Does the load-time dispatch layer cost anything? The fused kernel is
//      measured twice on the same workload: with the extension pinned to the
//      host's best (what a -march=native build would inline) and with kAuto
//      (the runtime cpuid decision). Acceptance: the auto path is within 2%
//      of pinned — dispatch is a one-time function-pointer choice, not a
//      per-trial branch.
//
//   2. Do gathered probes pay? RobinHood/Cuckoo lookup_many is measured with
//      the scalar prefetch-ring loop and with the widest gathered kernel, in
//      both regimes: a cache-resident table (gathers amortize the compare
//      loop) and a miss-dominated table (every lane waits on DRAM, so the
//      gain shrinks toward the paper's memory-bound ceiling).
//
// Every point lands in BENCH_dispatch.json for the CI perf-trajectory
// artifact.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simd_engine.hpp"
#include "elt/cuckoo_table.hpp"
#include "elt/probe_dispatch.hpp"
#include "elt/robin_hood_table.hpp"
#include "elt/synthetic.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace are;
using bench::Scale;
using Clock = std::chrono::steady_clock;

const Scale kScale = Scale::current();

// Cache-resident regime: regional-peril catalog, tables fit in L2.
const Scale kCacheScale{/*catalog_size=*/20'000, kScale.trials, kScale.events_per_trial,
                        /*elt_entries=*/2'000};

// Miss-dominated regime for the probe micro-bench: enough entries that the
// table (24 B/slot, pow2-rounded past the load factor) far exceeds LLC.
std::size_t miss_entries() { return bench::full_scale() ? 4'000'000 : 1'000'000; }

// --- Part 1: pinned vs runtime-dispatched kernel -----------------------------

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
  const double overhead_pct =
      pinned_seconds > 0.0 ? (auto_seconds / pinned_seconds - 1.0) * 100.0 : 0.0;

  bench::print_row("dispatch_overhead", "pinned_seconds", pinned_seconds, "auto_seconds",
                   auto_seconds);
  std::printf("[note] dispatch overhead: %.2f%% (pinned=%s; acceptance < 2%%)\n", overhead_pct,
              std::string(to_string(pinned)).c_str());
  report.add("dispatch_cache", "fused_pinned_" + std::string(to_string(pinned)), pinned_seconds,
             1.0);
  report.add("dispatch_cache", "fused_auto", auto_seconds,
             auto_seconds > 0.0 ? pinned_seconds / auto_seconds : 0.0,
             "\"dispatch_overhead_pct\": " + std::to_string(overhead_pct));
}

// --- Part 2: scalar vs gathered probe throughput -----------------------------

struct ProbeWorkload {
  std::string name;
  elt::EventLossTable elt;
  std::size_t catalog_size = 0;
  std::vector<elt::EventId> queries;
};

ProbeWorkload make_probe_workload(std::string name, std::size_t catalog_size,
                                  std::size_t entries) {
  elt::SyntheticEltConfig config;
  config.catalog_size = catalog_size;
  config.entries = entries;
  config.elt_id = 7;
  ProbeWorkload workload{std::move(name), elt::make_synthetic_elt(config), catalog_size, {}};
  // Uniform catalog draws: hit rate = entries / catalog, matching what the
  // trial kernel feeds lookup_many. Cheap LCG keeps generation off the clock.
  const std::size_t num_queries = bench::full_scale() ? 1u << 22 : 1u << 19;
  workload.queries.resize(num_queries);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < num_queries; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    workload.queries[i] = static_cast<elt::EventId>((state >> 33) % catalog_size);
  }
  return workload;
}

template <typename Table>
double measure_probe_seconds(const Table& table, const std::vector<elt::EventId>& queries) {
  // lookup_many in trial-sized batches, best of a few passes.
  constexpr std::size_t kBatch = 256;
  std::vector<double> out(kBatch);
  const int reps = 3;
  double best = 0.0;
  volatile double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    for (std::size_t offset = 0; offset < queries.size(); offset += kBatch) {
      const std::size_t count = std::min(kBatch, queries.size() - offset);
      table.lookup_many(queries.data() + offset, count, out.data());
      sink = sink + out[0];
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || seconds < best) best = seconds;
  }
  (void)sink;
  return best;
}

template <typename Table>
void bench_probe_table(const char* table_name, const ProbeWorkload& workload,
                       simd::Extension gathered, bench::JsonReport& report) {
  const Table table(workload.elt, workload.catalog_size);
  const double mlookups = static_cast<double>(workload.queries.size()) / 1e6;

  elt::probe::force_extension(simd::Extension::kScalar);
  const double scalar_seconds = measure_probe_seconds(table, workload.queries);

  elt::probe::force_extension(gathered);
  const bool have_gathered = elt::probe::active().robin_hood != nullptr;
  const double gathered_seconds =
      have_gathered ? measure_probe_seconds(table, workload.queries) : 0.0;
  elt::probe::force_extension(std::nullopt);

  const std::string workload_label = workload.name + "_" + table_name;
  report.add(workload_label, "probe_scalar", scalar_seconds, 1.0,
             "\"mlookups_per_sec\": " + std::to_string(mlookups / scalar_seconds));
  bench::print_row(("probe_" + workload_label).c_str(), "scalar_mlookups_per_sec",
                   mlookups / scalar_seconds, "seconds", scalar_seconds);
  if (!have_gathered) {
    bench::print_note("no gathered probe kernel compiled+runnable on this host; scalar only");
    return;
  }
  report.add(workload_label, "probe_" + std::string(simd::name_of(gathered)), gathered_seconds,
             scalar_seconds / gathered_seconds,
             "\"mlookups_per_sec\": " + std::to_string(mlookups / gathered_seconds));
  bench::print_row(("probe_" + workload_label).c_str(),
                   (std::string(simd::name_of(gathered)) + "_mlookups_per_sec").c_str(),
                   mlookups / gathered_seconds, "seconds", gathered_seconds);
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

  // Widest gathered kernel the host can actually run (avx512 > avx2); the
  // scalar baseline is the prefetch-ring loop every other extension uses.
  simd::Extension gathered = simd::Extension::kScalar;
  for (const simd::Extension candidate : {simd::Extension::kAvx512, simd::Extension::kAvx2}) {
    if (simd::mask_has(simd::runnable_extensions(), candidate)) {
      gathered = candidate;
      break;
    }
  }

  const ProbeWorkload cache_workload =
      make_probe_workload("cache", kCacheScale.catalog_size, kCacheScale.elt_entries);
  const ProbeWorkload miss_workload =
      make_probe_workload("memory", /*catalog_size=*/4 * miss_entries(), miss_entries());

  bench_probe_table<elt::RobinHoodTable>("robin_hood", cache_workload, gathered, report);
  bench_probe_table<elt::CuckooTable>("cuckoo", cache_workload, gathered, report);
  bench_probe_table<elt::RobinHoodTable>("robin_hood", miss_workload, gathered, report);
  bench_probe_table<elt::CuckooTable>("cuckoo", miss_workload, gathered, report);

  if (report.write(json_path)) {
    std::printf("[note] wrote %zu records to %s\n", report.size(), json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
