// Ablation for the paper's §III-B design argument: ELT representation.
// The paper selects the direct access table over sorted/binary-search,
// classic hashing and cuckoo hashing because aggregate analysis is
// memory-access bound and direct access needs exactly one access per
// lookup. This bench measures all four and the paged direct table, both
// as raw random-lookup microbenchmarks through lookup_many (the batch path
// every engine runs) and as whole-engine runs, and reports their memory
// cost.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "rng/stream.hpp"

namespace {

using namespace are;
using bench::Scale;

const Scale kScale = Scale::current();

elt::LookupKind kind_of(int index) {
  switch (index) {
    case 0: return elt::LookupKind::kDirectAccess;
    case 1: return elt::LookupKind::kSortedVector;
    case 2: return elt::LookupKind::kRobinHood;
    case 3: return elt::LookupKind::kCuckoo;
    default: return elt::LookupKind::kPagedDirect;
  }
}

// Raw lookup microbenchmark: uniformly random event ids against one ELT,
// resolved by one lookup_many call into a reused output buffer.
void ablation_raw_lookup(benchmark::State& state) {
  const elt::LookupKind kind = kind_of(static_cast<int>(state.range(0)));
  elt::SyntheticEltConfig config;
  config.catalog_size = kScale.catalog_size;
  config.entries = kScale.elt_entries;
  const auto table = elt::make_synthetic_elt(config);
  const auto lookup = elt::make_lookup(kind, table, kScale.catalog_size);

  // Pre-generate the probe sequence so RNG cost stays out of the loop.
  rng::Stream stream(7, 42, 0);
  std::vector<elt::EventId> probes(1 << 16);
  for (auto& probe : probes) {
    probe = static_cast<elt::EventId>(stream.uniform_below(kScale.catalog_size));
  }

  std::vector<double> losses(probes.size());
  for (auto _ : state) {
    lookup->lookup_many(probes.data(), probes.size(), losses.data());
    benchmark::DoNotOptimize(losses.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
  state.counters["memory_mb"] =
      static_cast<double>(lookup->memory_bytes()) / (1024.0 * 1024.0);
  state.SetLabel(std::string(to_string(kind)));
}

// Whole-engine runs with each representation backing all 15 ELTs.
void ablation_engine(benchmark::State& state) {
  const elt::LookupKind kind = kind_of(static_cast<int>(state.range(0)));
  static const yet::YearEventTable yet_table =
      bench::make_yet(kScale, kScale.trials / 2, kScale.events_per_trial);
  const core::Portfolio portfolio = bench::make_portfolio(kScale, 1, 15, kind);

  for (auto _ : state) {
    auto ylt = bench::run(portfolio, yet_table, {.engine = core::EngineKind::kSequential});
    benchmark::DoNotOptimize(ylt);
  }
  state.SetLabel(std::string(to_string(kind)));
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_note(
      "ELT representation ablation (paper SIII-B): direct access vs sorted "
      "binary search vs Robin Hood hashing vs cuckoo hashing.");
  bench::print_note(
      "expected: direct access fastest per lookup but with universe-sized "
      "memory; sorted slowest (O(log n) dependent accesses); cuckoo close "
      "to direct in accesses but with hashing arithmetic overhead.");
  for (int kind = 0; kind < 5; ++kind) {
    benchmark::RegisterBenchmark("ablation/raw_lookup", ablation_raw_lookup)->Arg(kind);
    benchmark::RegisterBenchmark("ablation/engine", ablation_engine)
        ->Arg(kind)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
