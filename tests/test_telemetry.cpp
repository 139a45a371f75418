// Tests for the runtime telemetry subsystem (src/obs/): exact counter
// arithmetic checked against hand-built table layouts and a hand-built YET,
// the kernel's Fig-6b phase laps and lookup counts on every engine x table
// kind x delta mode x sink, bit-identity of telemetry-on vs. telemetry-off
// output for every engine x sink combination, Chrome-trace JSON well-formedness (balanced
// B/E, per-thread monotonic timestamps), exporter formats, and registry /
// shard-store thread-safety under concurrent hammering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/engine.hpp"
#include "core/engine_registry.hpp"
#include "core/trial_kernel.hpp"
#include "elt/cuckoo_table.hpp"
#include "elt/direct_access_table.hpp"
#include "elt/paged_direct_table.hpp"
#include "elt/robin_hood_table.hpp"
#include "elt/sorted_table.hpp"
#include "elt/synthetic.hpp"
#include "io/csv.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "shard/shard_store.hpp"
#include "shard/sharded_run.hpp"
#include "shard/sharded_ylt.hpp"
#include "yet/generator.hpp"
#include "yet/year_event_table.hpp"

namespace {

using namespace are;
using core::Portfolio;
using obs::TelemetryRegistry;

constexpr std::size_t kUniverse = 20'000;

/// Every telemetry test runs against the (process-global) registry, so each
/// one starts from zeroed instruments and leaves collection off for the
/// rest of the binary.
class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    TelemetryRegistry::global().reset();
    obs::TraceBuffer::global().clear();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
  }
};

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 200e3;
    layer.terms.occurrence_limit = 2e6;
    layer.terms.aggregate_retention = 500e3;
    layer.terms.aggregate_limit = 20e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 2'000;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 10e3;
      layer_elt.terms.share = 0.9;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable small_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kNegativeBinomial;
  config.dispersion = 2.0;
  config.seed = 47;
  return yet::generate_uniform_yet(config, kUniverse);
}

std::uint64_t counter_now(std::string_view name) {
  return TelemetryRegistry::global().snapshot().counter_value(name);
}

// --- Registry basics ----------------------------------------------------------

TEST_F(Telemetry, RegistryHandlesAreStableAcrossReset) {
  TelemetryRegistry registry;  // isolated instance
  obs::Counter& c1 = registry.counter("a.b");
  obs::Counter& c2 = registry.counter("a.b");
  EXPECT_EQ(&c1, &c2);  // find-or-create returns the same instrument

  c1.add(41);
  c1.increment();
  EXPECT_EQ(c2.value(), 42u);

  registry.reset();
  EXPECT_EQ(c1.value(), 0u);  // zeroed, but the handle keeps working
  c1.increment();
  EXPECT_EQ(registry.snapshot().counter_value("a.b"), 1u);
  EXPECT_EQ(registry.snapshot().counter_value("absent"), 0u);
}

TEST_F(Telemetry, SnapshotIsSortedByName) {
  TelemetryRegistry registry;
  registry.counter("z.last").increment();
  registry.counter("a.first").add(2);
  registry.counter("m.mid").add(3);
  const obs::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[1].name, "m.mid");
  EXPECT_EQ(snapshot.counters[2].name, "z.last");
}

TEST_F(Telemetry, GaugeTracksLevelAndHighWaterMark) {
  obs::Gauge gauge;
  gauge.add(100);
  gauge.record_max(gauge.value());
  gauge.add(-40);
  EXPECT_EQ(gauge.value(), 60);
  gauge.record_max(gauge.value());
  obs::Gauge peak;
  peak.record_max(100);
  peak.record_max(60);  // lower value must not regress the max
  EXPECT_EQ(peak.value(), 100);
}

TEST_F(Telemetry, HistogramBucketsByPowerOfTwo) {
  obs::Histogram histogram;
  histogram.record_ns(1);     // bit_width(1) == 1
  histogram.record_ns(50);    // bit_width(50) == 6
  histogram.record_ns(1024);  // bit_width(1024) == 11
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum_ns(), 1075u);
  EXPECT_EQ(histogram.min_ns(), 1u);
  EXPECT_EQ(histogram.max_ns(), 1024u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(6), 1u);
  EXPECT_EQ(histogram.bucket(11), 1u);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min_ns(), 0u);  // empty histogram reports 0
}

TEST_F(Telemetry, RunScopeRestoresPriorFlags) {
  EXPECT_FALSE(obs::enabled());
  {
    const obs::RunScope scope(/*counters=*/true, /*trace=*/true);
    EXPECT_TRUE(obs::enabled());
    EXPECT_TRUE(obs::trace_enabled());
  }
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::trace_enabled());

  // A host that enabled collection process-wide keeps it across runs.
  obs::set_enabled(true);
  {
    const obs::RunScope scope(/*counters=*/false, /*trace=*/false);
    EXPECT_TRUE(obs::enabled());  // scope only ever widens
  }
  EXPECT_TRUE(obs::enabled());
}

// --- Exact probe arithmetic against hand-built tables -------------------------

TEST_F(Telemetry, SortedTableCountsOneComparePerQueryOnSingleEntry) {
  // n == 1: the grouped binary search does exactly one compare per query,
  // hit or miss, so probes == lookups.
  const elt::EventLossTable table({{5, 2.5}});
  const elt::SortedTable sorted(table, /*catalog_size=*/100);

  const std::vector<yet::EventId> queries = {5, 7, 0, 5, 99, 5, 1, 2, 3, 5};
  std::vector<double> out(queries.size(), -1.0);
  obs::set_enabled(true);
  sorted.lookup_many(queries.data(), queries.size(), out.data());
  obs::set_enabled(false);

  EXPECT_EQ(counter_now("elt.sorted_vector.lookups"), queries.size());
  EXPECT_EQ(counter_now("elt.sorted_vector.probes"), queries.size());
  EXPECT_EQ(out[0], 2.5);
  EXPECT_EQ(out[1], 0.0);
}

TEST_F(Telemetry, RobinHoodCountsOneSlotReadPerPresentKey) {
  // A single-entry table inserts at its home slot (distance 0); looking the
  // key up reads exactly that one slot.
  const elt::EventLossTable table({{17, 4.0}});
  const elt::RobinHoodTable robin(table, /*catalog_size=*/100);

  const std::vector<yet::EventId> queries(12, 17);
  std::vector<double> out(queries.size(), 0.0);
  obs::set_enabled(true);
  robin.lookup_many(queries.data(), queries.size(), out.data());
  obs::set_enabled(false);

  EXPECT_EQ(counter_now("elt.robin_hood.lookups"), queries.size());
  EXPECT_EQ(counter_now("elt.robin_hood.probes"), queries.size());
  for (const double loss : out) EXPECT_EQ(loss, 4.0);
}

TEST_F(Telemetry, CuckooCountsTwoBucketReadsPerMiss) {
  // A missing key always reads both candidate buckets.
  const elt::EventLossTable table({{3, 1.0}, {9, 2.0}});
  const elt::CuckooTable cuckoo(table, /*catalog_size=*/100);

  const std::vector<yet::EventId> misses = {50, 51, 52, 53, 54, 55, 56};
  std::vector<double> out(misses.size(), -1.0);
  obs::set_enabled(true);
  cuckoo.lookup_many(misses.data(), misses.size(), out.data());
  obs::set_enabled(false);

  EXPECT_EQ(counter_now("elt.cuckoo.lookups"), misses.size());
  EXPECT_EQ(counter_now("elt.cuckoo.probes"), 2 * misses.size());
  for (const double loss : out) EXPECT_EQ(loss, 0.0);
}

TEST_F(Telemetry, PagedDirectCountsZeroPageHitsFromTheLayout) {
  // One entry at event 3 materialises page 0; page 1 stays on the shared
  // zero page; ids past the catalog resolve to the zero constant. With
  // kPageBits == 9 a two-page universe is 1024 ids.
  const elt::EventLossTable table({{3, 7.0}});
  const elt::PagedDirectTable paged(table, /*catalog_size=*/2 * elt::PagedDirectTable::kPageSize);

  const std::vector<yet::EventId> queries = {
      3,                                        // page 0: materialised, no zero hit
      100,                                      // page 0 again (zero-valued slot, real page)
      elt::PagedDirectTable::kPageSize + 1,     // page 1: shared zero page
      4 * elt::PagedDirectTable::kPageSize,     // out of range: zero hit
  };
  std::vector<double> out(queries.size(), -1.0);
  obs::set_enabled(true);
  paged.lookup_many(queries.data(), queries.size(), out.data());
  obs::set_enabled(false);

  EXPECT_EQ(counter_now("elt.paged_direct.lookups"), queries.size());
  EXPECT_EQ(counter_now("elt.paged_direct.zero_page_hits"), 2u);
  EXPECT_EQ(out[0], 7.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);
  EXPECT_EQ(out[3], 0.0);
}

TEST_F(Telemetry, DirectAccessCountsLookups) {
  const elt::EventLossTable table({{1, 1.0}});
  const elt::DirectAccessTable direct(table, /*catalog_size=*/64);
  const std::vector<yet::EventId> queries = {1, 2, 3};
  std::vector<double> out(queries.size(), 0.0);
  obs::set_enabled(true);
  direct.lookup_many(queries.data(), queries.size(), out.data());
  obs::set_enabled(false);
  EXPECT_EQ(counter_now("elt.direct_access.lookups"), queries.size());
}

TEST_F(Telemetry, DisabledLookupsRecordNothing) {
  const elt::EventLossTable table({{5, 2.5}});
  const elt::SortedTable sorted(table, /*catalog_size=*/100);
  const std::vector<yet::EventId> queries = {5, 6, 7};
  std::vector<double> out(queries.size(), 0.0);
  sorted.lookup_many(queries.data(), queries.size(), out.data());  // telemetry off
  EXPECT_EQ(counter_now("elt.sorted_vector.lookups"), 0u);
  EXPECT_EQ(counter_now("elt.sorted_vector.probes"), 0u);
}

// --- Kernel counters on a hand-built YET --------------------------------------

TEST_F(Telemetry, KernelCountersMatchHandBuiltYet) {
  // Six trials owning {3, 1, 0, 2, 0, 0} events — 6 events total. One
  // layer, one single-entry sorted ELT: every event is looked up exactly
  // once (lookups == events == 6) with one compare each (probes == 6),
  // whatever the tile/task partitioning does.
  const yet::YearEventTable yet_table(
      /*events=*/{4, 9, 2, 7, 9, 4},
      /*times=*/{0.1f, 0.2f, 0.3f, 0.1f, 0.1f, 0.2f},
      /*offsets=*/{0, 3, 4, 4, 6, 6, 6});

  Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_limit = 1e9;
  core::LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kSortedVector,
                                      elt::EventLossTable({{9, 1.0e6}}), kUniverse);
  layer.elts.push_back(std::move(layer_elt));
  portfolio.layers.push_back(std::move(layer));

  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.tile_trials = 4;
  config.num_threads = 1;
  config.telemetry.counters = true;
  const auto ylt = core::run({portfolio, yet_table, config});
  EXPECT_FALSE(obs::enabled());  // RunScope restored the flag

  EXPECT_EQ(counter_now("kernel.launches"), 1u);
  EXPECT_EQ(counter_now("kernel.trials"), 6u);
  EXPECT_EQ(counter_now("kernel.events"), 6u);
  // block_trials == 4 bounds every block, so at least ceil(6/4) blocks ran.
  EXPECT_GE(counter_now("kernel.blocks"), 2u);
  EXPECT_EQ(counter_now("elt.sorted_vector.lookups"), 6u);
  EXPECT_EQ(counter_now("elt.sorted_vector.probes"), 6u);

  // The arithmetic itself is untouched: event 9 (the only ELT entry)
  // appears once in trial 0 and once in trial 3, nowhere else.
  EXPECT_EQ(ylt.layer_losses(0)[0], 1.0e6);
  EXPECT_EQ(ylt.layer_losses(0)[1], 0.0);
  EXPECT_EQ(ylt.layer_losses(0)[3], 1.0e6);
  EXPECT_EQ(ylt.layer_losses(0)[5], 0.0);
}

// --- Phase laps and access counts on the production block loop --------------

// Every engine x table kind x {cold, capture, replay} x {materialized,
// sharded under a spilling budget}, with telemetry counters on: the bytes
// are untelemetered scalar seq's, the lookup counters are the paper's
// predicted access counts (none on replay), and each phase is charged
// exactly where its path does the work, inside the kernel block time.
TEST_F(Telemetry, PhaseLapsAndLookupCountsOnEveryProductionPath) {
  enum class Mode { kCold, kCapture, kReplay };
  const auto yet_table = small_yet(97, 24.0);  // prime: ragged blocks and shards
  constexpr std::uint64_t kShardTrials = 16;
  std::size_t points = 0;
  for (const elt::LookupKind kind :
       {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
        elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo, elt::LookupKind::kPagedDirect}) {
    const Portfolio portfolio = synthetic_portfolio(2, 2, kind);
    const bool direct = portfolio.layers[0].all_direct_access();
    const std::uint64_t predicted = core::predict_access_counts(portfolio, yet_table).elt_lookups;
    core::AnalysisConfig seq_config;
    seq_config.engine = core::EngineKind::kSequential;
    const auto reference = core::run({portfolio, yet_table, seq_config});
    core::GroundUpLossCache captured(portfolio.layers.size(), yet_table.total_events());
    seq_config.ground_up_capture = &captured;
    (void)core::run({portfolio, yet_table, seq_config});

    for (const auto& engine : core::EngineRegistry::global().descriptors()) {
      for (const Mode mode : {Mode::kCold, Mode::kCapture, Mode::kReplay}) {
        for (const bool sharded : {false, true}) {
          SCOPED_TRACE(std::string(elt::to_string(kind)) + " " + engine.name + " mode " +
                       std::to_string(static_cast<int>(mode)) +
                       (sharded ? " sharded" : " materialized"));
          TelemetryRegistry::global().reset();
          core::GroundUpLossCache capture(portfolio.layers.size(), yet_table.total_events());
          core::AnalysisConfig config;
          config.engine_name = engine.name;
          config.num_threads = 2;
          config.telemetry.counters = true;
          if (mode == Mode::kCapture) config.ground_up_capture = &capture;
          if (mode == Mode::kReplay) config.ground_up_replay = &captured;
          core::YearLossTable ylt;
          if (sharded) {
            config.output = core::OutputMode::kSharded;
            config.sharding.shard_trials = kShardTrials;
            config.sharding.memory_budget_bytes =
                portfolio.layers.size() * kShardTrials * sizeof(double);
            auto table = shard::run_sharded({portfolio, yet_table, config});
            EXPECT_GT(table.stats().spills, 0u);
            ylt = table.materialize();
          } else {
            ylt = core::run({portfolio, yet_table, config});
          }
          const obs::Snapshot snapshot = TelemetryRegistry::global().snapshot();
          const auto phase_ns = [&snapshot](const char* phase) {
            return snapshot.counter_value("kernel.phase." + std::string(phase) + "_ns");
          };

          for (std::size_t layer = 0; layer < portfolio.layers.size(); ++layer) {
            ASSERT_EQ(0, std::memcmp(reference.layer_losses(layer).data(),
                                     ylt.layer_losses(layer).data(),
                                     yet_table.num_trials() * sizeof(double)))
                << "layer " << layer;
          }
          if (mode == Mode::kCapture) {
            EXPECT_EQ(0, std::memcmp(capture.layer_values(0), captured.layer_values(0),
                                     capture.memory_bytes()));
          }
          EXPECT_EQ(snapshot.counter_sum("elt.", ".lookups"),
                    mode == Mode::kReplay ? 0u : predicted);
          EXPECT_EQ(snapshot.counter_value("kernel.events"), yet_table.total_events());
          if (engine.kind == core::EngineKind::kFused) {
            EXPECT_GT(snapshot.counter_value("parallel.costed_chunks"), 0u);
          }

          if (mode == Mode::kReplay) {
            EXPECT_GT(phase_ns("fetch"), 0u);
            EXPECT_EQ(phase_ns("combine"), 0u);
            EXPECT_EQ(phase_ns("lookup"), 0u);
            EXPECT_EQ(phase_ns("financial"), 0u);
          } else if (direct) {
            // Event ids are read inside the gathers: no separate fetch.
            EXPECT_EQ(phase_ns("fetch"), 0u);
            EXPECT_GT(phase_ns("combine"), 0u);
            EXPECT_EQ(phase_ns("lookup"), 0u);
            EXPECT_EQ(phase_ns("financial"), 0u);
          } else {
            EXPECT_EQ(phase_ns("fetch"), 0u);
            EXPECT_EQ(phase_ns("combine"), 0u);
            EXPECT_GT(phase_ns("lookup"), 0u);
            EXPECT_GT(phase_ns("financial"), 0u);
          }
          EXPECT_GT(phase_ns("layer"), 0u);
          if (sharded || mode == Mode::kCapture) {
            EXPECT_GT(phase_ns("output"), 0u);
          } else {
            EXPECT_EQ(phase_ns("output"), 0u);
          }
          const std::uint64_t phases = snapshot.counter_sum("kernel.phase.", "_ns");
          EXPECT_GT(phases, 0u);
          EXPECT_LE(phases, snapshot.histogram_sum_ns("kernel.block_ns"));
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(points, 5u * 4u * 3u * 2u);
}

// --- Bit-identity: telemetry on vs. off, every engine x sink ------------------

std::string materialized_csv(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                             const core::EngineDescriptor& engine, bool telemetry) {
  core::AnalysisConfig config;
  config.engine = engine.kind;
  config.engine_name = engine.name;
  config.telemetry.counters = telemetry;
  config.telemetry.trace = telemetry;
  const auto ylt = core::run({portfolio, yet_table, config});
  std::ostringstream out;
  io::write_ylt_csv(out, ylt);
  return out.str();
}

std::string sharded_csv(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                        const core::EngineDescriptor& engine, bool telemetry) {
  core::AnalysisConfig config;
  config.engine = engine.kind;
  config.engine_name = engine.name;
  config.output = core::OutputMode::kSharded;
  config.sharding.shard_trials = 25;
  // 2 layers x 25 trials x 8 B = 400 B per shard: a one-shard budget forces
  // spill/fault traffic through the instrumented store paths.
  config.sharding.memory_budget_bytes = 400;
  config.telemetry.counters = telemetry;
  config.telemetry.trace = telemetry;
  auto sharded = shard::run_sharded({portfolio, yet_table, config});
  std::ostringstream out;
  io::write_ylt_csv(out, sharded);
  return out.str();
}

TEST_F(Telemetry, OnOffBitIdentityForEveryEngineAndSink) {
  const Portfolio portfolio = synthetic_portfolio(2, 2);
  const auto yet_table = small_yet(150, 20.0);

  std::size_t engines_checked = 0;
  for (const core::EngineDescriptor& engine :
       core::EngineRegistry::global().descriptors()) {
    SCOPED_TRACE(engine.name);
    ++engines_checked;

    TelemetryRegistry::global().reset();
    const std::string off = materialized_csv(portfolio, yet_table, engine, false);
    EXPECT_EQ(counter_now("kernel.launches"), 0u) << "telemetry-off run recorded counters";
    const std::string on = materialized_csv(portfolio, yet_table, engine, true);
    EXPECT_GT(counter_now("kernel.launches"), 0u) << "telemetry-on run recorded nothing";
    EXPECT_EQ(off, on) << "materialized output changed under telemetry";

    const std::string sharded_off = sharded_csv(portfolio, yet_table, engine, false);
    const std::string sharded_on = sharded_csv(portfolio, yet_table, engine, true);
    EXPECT_EQ(sharded_off, sharded_on) << "sharded output changed under telemetry";
    EXPECT_EQ(off, sharded_off) << "sharded output diverged from materialized";
  }
  EXPECT_EQ(engines_checked, 4u);  // seq, parallel, openmp, fused
}

// --- Shard store counters -----------------------------------------------------

TEST_F(Telemetry, ShardStoreCountersMatchStoreStats) {
  obs::set_enabled(true);
  {
    shard::ShardStoreConfig config;
    config.memory_budget_bytes = 32 * sizeof(double);  // one shard resident
    shard::ShardStore store(std::vector<std::size_t>(4, 32), config);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t s = 0; s < 4; ++s) {
        auto pin = store.pin(s);
        pin.data()[0] = static_cast<double>(round * 10 + s);
      }
    }
    const shard::ShardStoreStats stats = store.stats();
    EXPECT_GT(stats.spills, 0u);
    EXPECT_GT(stats.faults, 0u);

    const obs::Snapshot snapshot = TelemetryRegistry::global().snapshot();
    EXPECT_EQ(snapshot.counter_value("shard.spills"), stats.spills);
    EXPECT_EQ(snapshot.counter_value("shard.faults"), stats.faults);
    EXPECT_EQ(snapshot.counter_value("shard.bytes_spilled"), stats.spills * 32 * sizeof(double));
    EXPECT_EQ(snapshot.counter_value("shard.bytes_faulted"), stats.faults * 32 * sizeof(double));
    EXPECT_EQ(snapshot.gauge_value("shard.resident_bytes"),
              static_cast<std::int64_t>(stats.resident_bytes));
    EXPECT_EQ(snapshot.gauge_value("shard.peak_resident_bytes"),
              static_cast<std::int64_t>(stats.peak_resident_bytes));
  }
  obs::set_enabled(false);
}

// --- Chrome-trace JSON --------------------------------------------------------

/// Pulls `"key":<number>` out of a trace-event line.
std::uint64_t extract_uint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << line;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Timestamp as integer nanoseconds (the writer emits µs with 3 decimals).
std::uint64_t extract_ts_ns(const std::string& line) {
  const std::size_t at = line.find("\"ts\":");
  EXPECT_NE(at, std::string::npos) << line;
  char* end = nullptr;
  const std::uint64_t whole_us = std::strtoull(line.c_str() + at + 5, &end, 10);
  EXPECT_EQ(*end, '.') << line;
  const std::uint64_t frac = std::strtoull(end + 1, nullptr, 10);
  return whole_us * 1000 + frac;
}

TEST_F(Telemetry, TraceJsonIsBalancedAndMonotonicPerThread) {
  // Sorted tables: the direct-access gather fast path would bypass
  // lookup_many (and its span) entirely.
  const Portfolio portfolio = synthetic_portfolio(2, 2, elt::LookupKind::kSortedVector);
  const auto yet_table = small_yet(200, 25.0);

  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.num_threads = 2;
  config.telemetry.counters = true;
  config.telemetry.trace = true;
  (void)core::run({portfolio, yet_table, config});
  EXPECT_FALSE(obs::trace_enabled());  // RunScope restored the flag

  obs::TraceBuffer& buffer = obs::TraceBuffer::global();
  ASSERT_GT(buffer.event_count(), 0u);

  std::ostringstream out;
  buffer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");

  // One event per line: walk them, tracking per-tid span depth and
  // timestamp monotonicity.
  std::istringstream lines(json);
  std::string line;
  std::size_t events = 0;
  std::map<std::uint64_t, std::int64_t> depth;
  std::map<std::uint64_t, std::uint64_t> last_ts;
  while (std::getline(lines, line)) {
    const std::size_t ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    ++events;
    const char phase = line[ph + 6];
    const std::uint64_t tid = extract_uint(line, "tid");
    const std::uint64_t ts = extract_ts_ns(line);
    ASSERT_TRUE(phase == 'B' || phase == 'E') << line;
    depth[tid] += phase == 'B' ? 1 : -1;
    ASSERT_GE(depth[tid], 0) << "unbalanced 'E' on tid " << tid;
    if (last_ts.count(tid) != 0) {
      ASSERT_GE(ts, last_ts[tid]) << "timestamps regressed on tid " << tid;
    }
    last_ts[tid] = ts;
  }
  EXPECT_EQ(events, buffer.event_count());
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
  }

  // The expected span names all appear at least once.
  for (const char* name : {"kernel.launch", "elt.lookup_many", "parallel.costed_chunk"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""), std::string::npos) << name;
  }
}

// --- Exporters ----------------------------------------------------------------

TEST_F(Telemetry, ExportersRenderKnownSnapshotExactly) {
  TelemetryRegistry registry;
  registry.counter("kernel.trials").add(6);
  registry.gauge("shard.resident_bytes").set(-8);
  obs::Histogram& histogram = registry.histogram("pool.task_ns");
  histogram.record_ns(50);
  histogram.record_ns(100);
  const obs::Snapshot snapshot = registry.snapshot();

  // Quantiles for samples {50, 100}: p50 lands on the first sample's
  // bucket [32,63] interpolated to its top (63); p95/p99 interpolate into
  // [64,127], clamped-upper to the observed max 100 -> 96 / 99.
  std::ostringstream json;
  obs::write_snapshot_json(json, snapshot);
  EXPECT_EQ(json.str(),
            "{\"counters\":{\"kernel.trials\":6},"
            "\"gauges\":{\"shard.resident_bytes\":-8},"
            "\"histograms\":{\"pool.task_ns\":{\"count\":2,\"sum_ns\":150,"
            "\"min_ns\":50,\"max_ns\":100,"
            "\"p50_ns\":63,\"p95_ns\":96,\"p99_ns\":99}}}\n");

  std::ostringstream csv;
  obs::write_snapshot_csv(csv, snapshot);
  EXPECT_EQ(csv.str(),
            "kind,name,value\n"
            "counter,kernel.trials,6\n"
            "gauge,shard.resident_bytes,-8\n"
            "histogram,pool.task_ns.count,2\n"
            "histogram,pool.task_ns.sum_ns,150\n"
            "histogram,pool.task_ns.min_ns,50\n"
            "histogram,pool.task_ns.max_ns,100\n"
            "histogram,pool.task_ns.p50_ns,63\n"
            "histogram,pool.task_ns.p95_ns,96\n"
            "histogram,pool.task_ns.p99_ns,99\n");

  std::ostringstream prom;
  obs::write_snapshot_prometheus(prom, snapshot);
  const std::string text = prom.str();
  // Dots sanitised, counters suffixed _total, gauges bare.
  EXPECT_NE(text.find("# TYPE are_kernel_trials_total counter\n"
                      "are_kernel_trials_total 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE are_shard_resident_bytes gauge\n"
                      "are_shard_resident_bytes -8\n"),
            std::string::npos);
  // A real Prometheus histogram family: cumulative le buckets over the
  // power-of-two bounds up to the highest non-empty bucket, then +Inf ==
  // _count, then _sum/_count, with min/max and derived quantiles as
  // gauge families.
  EXPECT_NE(text.find("# TYPE are_pool_task_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_bucket{le=\"31\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_bucket{le=\"63\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_bucket{le=\"127\"} 2\n"
                      "are_pool_task_ns_bucket{le=\"+Inf\"} 2\n"
                      "are_pool_task_ns_sum 150\n"
                      "are_pool_task_ns_count 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE are_pool_task_ns_p50_ns gauge\n"
                      "are_pool_task_ns_p50_ns 63\n"),
            std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_p99_ns 99\n"), std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_min_ns 50\n"), std::string::npos);
  EXPECT_NE(text.find("are_pool_task_ns_max_ns 100\n"), std::string::npos);
  // Buckets past the highest non-empty one collapse into +Inf.
  EXPECT_EQ(text.find("are_pool_task_ns_bucket{le=\"255\"}"), std::string::npos);
}

TEST_F(Telemetry, PrometheusRendersLabelledInstrumentFamilies) {
  // The `base{key=value}` instrument-name convention: JSON/CSV keep the
  // flat name verbatim; the Prometheus exporter splits it into a family
  // plus labels, groups the family under ONE TYPE line, and appends the
  // le label after the instrument's own labels.
  TelemetryRegistry registry;
  registry.histogram("service.quote_ns{source=cached}").record_ns(100);
  registry.histogram("service.quote_ns{source=cold}").record_ns(1000);
  registry.counter("service.outcome{kind=ok}").add(3);
  const obs::Snapshot snapshot = registry.snapshot();

  std::ostringstream prom;
  obs::write_snapshot_prometheus(prom, snapshot);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE are_service_outcome_total counter\n"
                      "are_service_outcome_total{kind=\"ok\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("are_service_quote_ns_bucket{source=\"cached\",le=\"127\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("are_service_quote_ns_bucket{source=\"cold\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("are_service_quote_ns_sum{source=\"cold\"} 1000\n"), std::string::npos);
  EXPECT_NE(text.find("are_service_quote_ns_p50_ns{source=\"cached\"}"), std::string::npos);
  // One TYPE line covers both labelled members of the family.
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE are_service_quote_ns histogram");
       at != std::string::npos;
       at = text.find("# TYPE are_service_quote_ns histogram", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);

  // JSON keeps the dotted+labelled name as an opaque key.
  const std::string json = obs::snapshot_json_object(snapshot);
  EXPECT_NE(json.find("\"service.quote_ns{source=cold}\":{\"count\":1"), std::string::npos);
}

// --- Thread safety ------------------------------------------------------------

TEST_F(Telemetry, RegistrySurvivesConcurrentCreateIncrementSnapshot) {
  TelemetryRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 20'000;
  const char* names[] = {"hammer.a", "hammer.b", "hammer.c", "hammer.d"};

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Resolve through the registry every iteration: registration racing
      // registration and registration racing snapshot are the point.
      for (std::size_t i = 0; i < kIncrements; ++i) {
        registry.counter(names[(w + i) % 4]).increment();
        registry.gauge("hammer.level").add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load()) (void)registry.snapshot();
  });
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  snapshotter.join();

  const obs::Snapshot snapshot = registry.snapshot();
  std::uint64_t total = 0;
  for (const char* name : names) total += snapshot.counter_value(name);
  EXPECT_EQ(total, kThreads * kIncrements);
  EXPECT_EQ(snapshot.gauge_value("hammer.level"), 0);
}

TEST_F(Telemetry, ShardCountersSurviveConcurrentPinHammer) {
  // The concurrent-pin hammer from test_sharded_ylt, with telemetry
  // collecting: spill/fault counters and the delta-tracked resident gauge
  // must stay consistent with the store's own stats whatever interleaving
  // the one-shard budget forces.
  obs::set_enabled(true);
  {
    shard::ShardStoreConfig config;
    config.memory_budget_bytes = 32 * sizeof(double);
    shard::ShardStore store(std::vector<std::size_t>(8, 32), config);

    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint32_t round = 0; round < 15; ++round) {
          for (const std::size_t shard : {2 * w, 2 * w + 1}) {
            auto pin = store.pin(shard);
            pin.data()[round % 32] = static_cast<double>(shard * 100 + round);
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    const shard::ShardStoreStats stats = store.stats();
    const obs::Snapshot snapshot = TelemetryRegistry::global().snapshot();
    EXPECT_GT(stats.spills, 0u);
    EXPECT_EQ(snapshot.counter_value("shard.spills"), stats.spills);
    EXPECT_EQ(snapshot.counter_value("shard.faults"), stats.faults);
    EXPECT_EQ(snapshot.gauge_value("shard.resident_bytes"),
              static_cast<std::int64_t>(stats.resident_bytes));
    EXPECT_GE(snapshot.gauge_value("shard.peak_resident_bytes"),
              snapshot.gauge_value("shard.resident_bytes"));
  }
  obs::set_enabled(false);
}

}  // namespace
