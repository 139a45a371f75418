// Tests for the fused engine (the kernel's cost-aware schedule): bit-
// identical equivalence with seq across every lookup representation x tile
// size x thread count, determinism over many small chunks, pool reuse
// through the unified API, and the batch lookup_many overrides against
// scalar lookup for every table type.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "core/analysis.hpp"
#include "core/engine_registry.hpp"
#include "core/trial_kernel.hpp"
#include "elt/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::AnalysisConfig;
using core::EngineKind;
using core::Portfolio;
using core::YearLossTable;

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

/// Negative-binomial counts: strongly skewed trial lengths, the regime the
/// cost-aware scheduling exists for (and empty trials as an edge case).
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
  return core::run({portfolio, yet_table, {.engine = EngineKind::kSequential}});
}

/// The fused engine with the given knobs.
YearLossTable run_tiles(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                        AnalysisConfig config) {
  config.engine = EngineKind::kFused;
  return core::run({portfolio, yet_table, config});
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    for (std::size_t trial = 0; trial < a.num_trials(); ++trial) {
      ASSERT_EQ(a.at(layer, trial), b.at(layer, trial))
          << "layer " << layer << " trial " << trial;
    }
  }
}

// --- Bit-identity sweep: lookup kind x tile size x threads ---------------------

class FusedEquivalence
    : public ::testing::TestWithParam<std::tuple<elt::LookupKind, std::size_t>> {};

TEST_P(FusedEquivalence, BitIdenticalToSequential) {
  const auto [kind, tile] = GetParam();
  const Portfolio portfolio = synthetic_portfolio(2, 3, kind);
  const auto yet_table = skewed_yet(401, 50.0);  // prime trial count: ragged tiles
  const auto sequential = run_seq(portfolio, yet_table);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(sequential, run_tiles(portfolio, yet_table,
                                           {.num_threads = threads, .tile_trials = tile}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndTiles, FusedEquivalence,
    ::testing::Combine(::testing::Values(elt::LookupKind::kDirectAccess,
                                         elt::LookupKind::kSortedVector,
                                         elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo,
                                         elt::LookupKind::kPagedDirect),
                       ::testing::Values(1, 7, 64, 4096)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_tile" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FusedEngine, MixedLookupKindsAcrossElts) {
  // One layer mixing representations: forces the generic lookup_many path.
  core::Layer layer;
  layer.id = 1;
  const elt::LookupKind kinds[] = {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
                                   elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo,
                                   elt::LookupKind::kPagedDirect};
  for (std::size_t e = 0; e < 5; ++e) {
    elt::SyntheticEltConfig config;
    config.catalog_size = kUniverse;
    config.entries = 1'000;
    config.elt_id = e;
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(kinds[e], elt::make_synthetic_elt(config), kUniverse);
    layer.elts.push_back(std::move(layer_elt));
  }
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));

  const auto yet_table = skewed_yet(300, 40.0);
  expect_identical(run_seq(portfolio, yet_table),
                   run_tiles(portfolio, yet_table, {.num_threads = 3, .tile_trials = 32}));
}

// --- Determinism over many small chunks ---------------------------------------

TEST(FusedEngine, ManySmallChunksAreDeterministic) {
  const Portfolio portfolio = synthetic_portfolio(2, 4);
  const auto yet_table = skewed_yet(500, 60.0);

  // 32 workers split the 500 trials into up to 32 equal-event chunks of a
  // few 4-trial tiles each, claimed in whatever order the threads arrive.
  const AnalysisConfig config{.num_threads = 32, .tile_trials = 4};

  const auto first = run_tiles(portfolio, yet_table, config);
  const auto second = run_tiles(portfolio, yet_table, config);
  for (std::size_t layer = 0; layer < first.num_layers(); ++layer) {
    const auto a = first.layer_losses(layer);
    const auto b = second.layer_losses(layer);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "layer " << layer << ": the chunks' claim order changed the YLT bytes";
  }
}

// --- Unified API integration --------------------------------------------------

TEST(FusedEngine, ReachableThroughRegistryWithPoolReuse) {
  const auto& descriptor = core::EngineRegistry::global().require("fused");
  EXPECT_EQ(descriptor.kind, core::EngineKind::kFused);
  EXPECT_TRUE(descriptor.supports_pool_reuse);

  const Portfolio portfolio = synthetic_portfolio(1, 3);
  const auto yet_table = skewed_yet(200, 40.0);
  const auto sequential = run_seq(portfolio, yet_table);

  parallel::ThreadPool pool(3);
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.pool = &pool;
  config.tile_trials = 16;
  expect_identical(sequential, core::run({portfolio, yet_table, config}));
  expect_identical(sequential, core::run({portfolio, yet_table, config}));  // pool still warm
}

TEST(FusedEngine, ZeroTileSelectsHeuristicAndStaysBitIdentical) {
  const Portfolio portfolio = synthetic_portfolio(1, 1);
  const auto yet_table = skewed_yet(10, 5.0);

  // tile_trials == 0 means "derive from ELT footprint + events/trial".
  const std::size_t tile = core::default_tile_trials(portfolio, yet_table);
  EXPECT_GE(tile, 16u);
  EXPECT_LE(tile, 4096u);
  expect_identical(run_seq(portfolio, yet_table),
                   run_tiles(portfolio, yet_table, {.num_threads = 1, .tile_trials = 0}));

  core::AnalysisConfig config;
  config.tile_trials = 0;  // valid now: selects the heuristic
  config.validate();
}

TEST(FusedEngine, TileHeuristicShrinksWithDenserTrials) {
  // More events per trial = bigger staged buffers per tile, so the
  // heuristic must not pick a larger tile for the denser YET.
  const Portfolio portfolio = synthetic_portfolio(1, 2);
  const auto sparse = skewed_yet(64, 10.0);
  const auto dense = skewed_yet(64, 500.0);
  EXPECT_LE(core::default_tile_trials(portfolio, dense),
            core::default_tile_trials(portfolio, sparse));
}

TEST(FusedEngine, EmptyYetYieldsZeroTrials) {
  const Portfolio portfolio = synthetic_portfolio(1, 1);
  const yet::YearEventTable empty;
  const auto ylt = run_tiles(portfolio, empty, {.num_threads = 2, .tile_trials = 64});
  EXPECT_EQ(ylt.num_trials(), 0u);
}

// --- lookup_many batch overrides vs scalar lookup -----------------------------

class LookupManyEquivalence : public ::testing::TestWithParam<elt::LookupKind> {};

TEST_P(LookupManyEquivalence, MatchesScalarLookupAtEveryBatchSize) {
  elt::SyntheticEltConfig config;
  config.catalog_size = kUniverse;
  config.entries = 3'000;
  config.elt_id = 9;
  const auto lookup = elt::make_lookup(GetParam(), elt::make_synthetic_elt(config), kUniverse);

  // Probe sequence mixing hits, misses, out-of-universe ids, and the batch
  // pad sentinel — every path the fused engine can feed to lookup_many.
  std::vector<elt::EventId> events;
  for (std::uint32_t i = 0; i < 512; ++i) {
    events.push_back((i * 37) % kUniverse);
    if (i % 13 == 0) events.push_back(catalog::kInvalidEvent);
    if (i % 29 == 0) events.push_back(static_cast<elt::EventId>(kUniverse + i));
  }

  // Sizes straddling the group/lookahead/block boundaries of the overrides.
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65}, std::size_t{200},
                                  events.size()}) {
    std::vector<double> batch(count + 1, -1.0);
    lookup->lookup_many(events.data(), count, batch.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(batch[i], lookup->lookup(events[i])) << "count " << count << " index " << i;
    }
    EXPECT_EQ(batch[count], -1.0) << "lookup_many wrote past count";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LookupManyEquivalence,
                         ::testing::Values(elt::LookupKind::kDirectAccess,
                                           elt::LookupKind::kSortedVector,
                                           elt::LookupKind::kRobinHood,
                                           elt::LookupKind::kCuckoo,
                                           elt::LookupKind::kPagedDirect),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(LookupMany, EmptyTableReturnsZeros) {
  const elt::EventLossTable empty;
  for (const auto kind : {elt::LookupKind::kSortedVector, elt::LookupKind::kRobinHood,
                          elt::LookupKind::kCuckoo, elt::LookupKind::kPagedDirect}) {
    const auto lookup = elt::make_lookup(kind, empty, kUniverse);
    const elt::EventId events[] = {0, 5, catalog::kInvalidEvent};
    double out[3] = {-1.0, -1.0, -1.0};
    lookup->lookup_many(events, 3, out);
    for (const double value : out) EXPECT_EQ(value, 0.0) << to_string(kind);
  }
}

}  // namespace
