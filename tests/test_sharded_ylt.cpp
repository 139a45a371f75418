// Tests for the sharded out-of-core YLT (src/shard/): sharded-vs-
// materialized bit-identity across engines x shard sizes
// (including shard size 1 and one shard spanning every trial), forced
// spill-and-restore under a tiny memory budget, spill round-trip fidelity
// at the store and io levels, the YltSink contract, and shard-wise
// EP/AAL/TVaR reductions against the in-memory metrics.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/engine_registry.hpp"
#include "elt/synthetic.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/sharded_reduce.hpp"
#include "metrics/statistics.hpp"
#include "shard/sharded_run.hpp"
#include "shard/sharded_ylt.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::Portfolio;
using core::YearLossTable;
using shard::ShardedYearLossTable;
using shard::ShardStoreConfig;

constexpr std::size_t kUniverse = 20'000;

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

yet::YearEventTable skewed_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kNegativeBinomial;
  config.dispersion = 2.0;
  config.seed = 31;
  return yet::generate_uniform_yet(config, kUniverse);
}

YearLossTable run_seq(const Portfolio& portfolio, const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    const auto row_a = a.layer_losses(layer);
    const auto row_b = b.layer_losses(layer);
    ASSERT_EQ(0, std::memcmp(row_a.data(), row_b.data(), row_a.size() * sizeof(double)))
        << "layer " << layer;
  }
}

core::AnalysisConfig sharded_config(std::string engine, std::uint64_t shard_trials,
                                    std::size_t budget_bytes = 0) {
  core::AnalysisConfig config;
  const auto& descriptor = core::EngineRegistry::global().require(engine);
  config.engine = descriptor.kind;
  config.engine_name = descriptor.name;
  config.output = core::OutputMode::kSharded;
  config.sharding.shard_trials = shard_trials;
  config.sharding.memory_budget_bytes = budget_bytes;
  return config;
}

// --- Bit-identity: engines x shard sizes --------------------------------------

class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(ShardedEquivalence, MaterializeMatchesSequential) {
  const auto [engine, shard_trials] = GetParam();
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(401, 50.0);  // prime trial count: ragged last shard
  const auto sequential = run_seq(portfolio, yet_table);

  auto sharded =
      shard::run_sharded({portfolio, yet_table, sharded_config(engine, shard_trials)});
  EXPECT_EQ(sharded.num_shards(), (401 + shard_trials - 1) / shard_trials);
  expect_identical(sequential, sharded.materialize());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndShardSizes, ShardedEquivalence,
    ::testing::Combine(::testing::Values(std::string("seq"), std::string("parallel"),
                                         std::string("openmp"), std::string("fused")),
                       // shard size 1, a prime, a tile-straddling size, and
                       // one shard spanning every trial
                       ::testing::Values(1, 7, 64, 1000)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_shard" + std::to_string(std::get<1>(info.param));
    });

TEST(ShardedYlt, CsvStreamMatchesMaterializedWriter) {
  const Portfolio portfolio = synthetic_portfolio(2, 2);
  const auto yet_table = skewed_yet(123, 30.0);

  auto sharded = shard::run_sharded({portfolio, yet_table, sharded_config("fused", 32)});
  std::ostringstream streamed;
  io::write_ylt_csv(streamed, sharded);

  const auto materialized = run_seq(portfolio, yet_table);
  std::ostringstream direct;
  io::write_ylt_csv(direct, materialized);
  EXPECT_EQ(streamed.str(), direct.str());
}

// --- Forced spill under a tiny budget -----------------------------------------

TEST(ShardedYlt, TinyBudgetForcesSpillAndRestoresExactBytes) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(500, 40.0);
  const auto sequential = run_seq(portfolio, yet_table);

  // 2 layers x 25 trials x 8 B = 400 B per shard; budget of one shard
  // forces every other shard out during both the write and the read pass.
  for (const std::string engine : {"seq", "fused"}) {
    auto sharded = shard::run_sharded(
        {portfolio, yet_table, sharded_config(engine, 25, /*budget_bytes=*/400)});
    expect_identical(sequential, sharded.materialize());
    const shard::ShardStoreStats stats = sharded.stats();
    EXPECT_GT(stats.spills, 0u) << engine;
    EXPECT_GT(stats.faults, 0u) << engine;
    EXPECT_LE(stats.resident_bytes, stats.peak_resident_bytes) << engine;
  }
}

TEST(ShardedYlt, ThreadedEnginesForcedSpillStaysBitIdentical) {
  // The threaded drivers emit concurrent disjoint blocks into the sharded
  // sink while a tiny budget forces spill-and-restore cycles underneath;
  // every (engine x threads) combination must still land exactly the
  // sequential bytes.
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(400, 40.0);
  const auto sequential = run_seq(portfolio, yet_table);

  for (const std::string engine : {"parallel", "openmp", "fused"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      SCOPED_TRACE(engine + "_threads" + std::to_string(threads));
      // 2 layers x 25 trials x 8 B = 400 B per shard; a one-shard budget
      // keeps the store under constant eviction pressure.
      auto config = sharded_config(engine, 25, /*budget_bytes=*/400);
      config.num_threads = threads;
      auto sharded = shard::run_sharded({portfolio, yet_table, config});
      expect_identical(sequential, sharded.materialize());
      const shard::ShardStoreStats stats = sharded.stats();
      EXPECT_GT(stats.spills, 0u);
      EXPECT_GT(stats.faults, 0u);
    }
  }
}

TEST(ShardedYlt, MultiThreadedFusedSpillingIsDeterministic) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(400, 50.0);
  const auto sequential = run_seq(portfolio, yet_table);

  auto config = sharded_config("fused", 16, /*budget_bytes=*/1024);
  config.num_threads = 0;  // hardware concurrency
  config.tile_trials = 8;
  config.partition = parallel::Partition::kDynamic;
  auto sharded = shard::run_sharded({portfolio, yet_table, config});
  expect_identical(sequential, sharded.materialize());
}

// --- Spill round-trip fidelity ------------------------------------------------

TEST(ShardStore, SpillRestoreRoundTripPreservesBits) {
  ShardStoreConfig config;
  config.memory_budget_bytes = 64 * sizeof(double);  // one 64-double shard resident
  shard::ShardStore store({64, 64, 64}, config);

  // Fill each shard with a distinct pattern...
  for (std::size_t s = 0; s < 3; ++s) {
    auto pin = store.pin(s);
    auto data = pin.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<double>(s * 1000 + i) * 1.25e6;
    }
  }
  // ...which evicted earlier shards; faulting them back must restore the
  // exact bytes.
  for (std::size_t s = 0; s < 3; ++s) {
    auto pin = store.pin(s);
    auto data = pin.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], static_cast<double>(s * 1000 + i) * 1.25e6)
          << "shard " << s << " index " << i;
    }
  }
  const shard::ShardStoreStats stats = store.stats();
  EXPECT_GE(stats.spills, 2u);
  EXPECT_GE(stats.faults, 2u);
}

TEST(ShardStore, ConcurrentPinsUnderEvictionPressurePreserveBits) {
  // pin() releases the store mutex around spill writes and fault reads; a
  // one-shard budget keeps every pin evicting while worker threads hammer
  // disjoint shards. Whatever interleaving happens, each shard must always
  // fault back the exact bytes its last writer stored.
  ShardStoreConfig config;
  config.memory_budget_bytes = 32 * sizeof(double);  // one shard resident
  shard::ShardStore store(std::vector<std::size_t>(8, 32), config);

  const auto fill_value = [](std::size_t shard, std::uint32_t round, std::size_t i) {
    return static_cast<double>(shard * 1'000'000 + round * 1'000 + i) * 1.5;
  };

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      // Each worker owns two shards (disjoint data, concurrent I/O).
      for (std::uint32_t round = 0; round < 25; ++round) {
        for (const std::size_t shard : {2 * w, 2 * w + 1}) {
          auto pin = store.pin(shard);
          auto data = pin.data();
          if (round > 0) {
            for (std::size_t i = 0; i < data.size(); ++i) {
              ASSERT_EQ(data[i], fill_value(shard, round - 1, i))
                  << "shard " << shard << " round " << round << " index " << i;
            }
          }
          for (std::size_t i = 0; i < data.size(); ++i) data[i] = fill_value(shard, round, i);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const shard::ShardStoreStats stats = store.stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.faults, 0u);
  for (std::size_t shard = 0; shard < 8; ++shard) {
    auto pin = store.pin(shard);
    auto data = pin.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], fill_value(shard, 24, i)) << "shard " << shard << " index " << i;
    }
  }
}

TEST(ShardStore, SpillFilesAreRemovedOnDestruction) {
  std::filesystem::path dir;
  {
    ShardStoreConfig config;
    config.memory_budget_bytes = 8;  // everything unpinned spills
    shard::ShardStore store({16, 16}, config);
    { auto pin = store.pin(0); pin.data()[0] = 1.0; }
    { auto pin = store.pin(1); pin.data()[0] = 2.0; }
    dir = store.spill_dir();
    EXPECT_TRUE(std::filesystem::exists(dir / "shard_0.bin"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir / "shard_0.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir));  // store-owned temp dir is removed too
}

TEST(ShardBinary, RoundTripAndCorruptionDetection) {
  std::vector<double> values = {0.0, 1.5e9, -3.25, 7.125e-3};
  std::ostringstream out(std::ios::binary);
  io::write_shard_binary(out, values);

  std::vector<double> restored(values.size(), 0.0);
  {
    std::istringstream in(out.str(), std::ios::binary);
    io::read_shard_binary(in, restored);
  }
  EXPECT_EQ(0, std::memcmp(values.data(), restored.data(), values.size() * sizeof(double)));

  // Flip one payload byte: the checksum must catch it.
  std::string corrupt = out.str();
  corrupt[corrupt.size() / 2] ^= 0x40;
  std::istringstream in(corrupt, std::ios::binary);
  EXPECT_THROW(io::read_shard_binary(in, restored), std::runtime_error);

  // Size mismatch is rejected before reading the payload.
  std::vector<double> wrong_size(values.size() + 1);
  std::istringstream in2(out.str(), std::ios::binary);
  EXPECT_THROW(io::read_shard_binary(in2, wrong_size), std::runtime_error);
}

// --- YltSink contract ---------------------------------------------------------

TEST(YltSink, SequentialToMaterializedSinkMatchesSequential) {
  const Portfolio portfolio = synthetic_portfolio(2, 2);
  const auto yet_table = skewed_yet(200, 40.0);
  const auto sequential = run_seq(portfolio, yet_table);

  std::vector<std::uint32_t> ids;
  for (const auto& layer : portfolio.layers) ids.push_back(layer.id);
  YearLossTable ylt(ids, yet_table.num_trials());
  core::MaterializedYltSink sink(ylt);
  core::run_to_sink({portfolio, yet_table, {.engine = core::EngineKind::kSequential}}, sink);
  expect_identical(sequential, ylt);
}

TEST(YltSink, ShardedSinkRejectsBlocksCrossingShards) {
  ShardedYearLossTable table({1}, /*num_trials=*/100, /*shard_trials=*/10);
  shard::ShardedYltSink sink(table);
  EXPECT_EQ(sink.block_trials(), 10u);

  const std::vector<double> block(10, 1.0);
  sink.emit(0, 10, {block.data(), 10});  // exactly shard 1: fine
  EXPECT_THROW(sink.emit(0, 5, {block.data(), 10}), std::out_of_range);   // straddles 0|1
  EXPECT_THROW(sink.emit(0, 95, {block.data(), 10}), std::out_of_range);  // past the end
}

TEST(YltSink, RunRejectsShardedOutputAndZeroShardTrials) {
  const Portfolio portfolio = synthetic_portfolio(1, 1);
  const auto yet_table = skewed_yet(10, 5.0);

  // run() serves materialized output only.
  EXPECT_THROW(core::run({portfolio, yet_table, sharded_config("seq", 4)}),
               std::invalid_argument);

  // shard_trials == 0 is rejected by config validation.
  EXPECT_THROW(shard::run_sharded({portfolio, yet_table, sharded_config("seq", 0)}),
               std::invalid_argument);
}

// --- Shard-wise metric reductions ---------------------------------------------

TEST(ShardedReduce, EpAalTvarMatchInMemoryMetrics) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(400, 50.0);
  const auto materialized = run_seq(portfolio, yet_table);

  // A budget of ~2 shards keeps the reduction genuinely out-of-core.
  auto sharded = shard::run_sharded(
      {portfolio, yet_table, sharded_config("fused", 32, /*budget_bytes=*/2 * 32 * 2 * 8)});

  for (std::size_t layer = 0; layer < materialized.num_layers(); ++layer) {
    const metrics::EpCurve expected(materialized.layer_losses(layer));
    const metrics::EpCurve streamed = metrics::ep_curve_sharded(sharded, layer);

    ASSERT_EQ(expected.num_trials(), streamed.num_trials());
    EXPECT_EQ(0, std::memcmp(expected.sorted_losses().data(), streamed.sorted_losses().data(),
                             expected.num_trials() * sizeof(double)))
        << "layer " << layer << ": merged sorted runs differ from sorted materialized row";
    EXPECT_EQ(expected.expected_loss(), streamed.expected_loss());
    EXPECT_EQ(expected.tail_value_at_risk(0.99), streamed.tail_value_at_risk(0.99));
    EXPECT_EQ(expected.probable_maximum_loss(250.0), streamed.probable_maximum_loss(250.0));

    const metrics::RunningStats expected_stats = metrics::summarize(
        materialized.layer_losses(layer));
    const metrics::RunningStats streamed_stats = metrics::stats_sharded(sharded, layer);
    EXPECT_EQ(expected_stats.mean(), streamed_stats.mean());
    EXPECT_EQ(expected_stats.stddev(), streamed_stats.stddev());
    EXPECT_EQ(expected_stats.min(), streamed_stats.min());
    EXPECT_EQ(expected_stats.max(), streamed_stats.max());
  }

  const std::vector<double> expected_portfolio = materialized.portfolio_losses();
  const std::vector<double> streamed_portfolio = metrics::portfolio_losses_sharded(sharded);
  ASSERT_EQ(expected_portfolio.size(), streamed_portfolio.size());
  EXPECT_EQ(0, std::memcmp(expected_portfolio.data(), streamed_portfolio.data(),
                           expected_portfolio.size() * sizeof(double)));
}

TEST(ShardedReduce, FromSortedRejectsUnsortedInput) {
  EXPECT_THROW(metrics::EpCurve::from_sorted({}), std::invalid_argument);
  EXPECT_THROW(metrics::EpCurve::from_sorted({2.0, 1.0}), std::invalid_argument);
}

}  // namespace
