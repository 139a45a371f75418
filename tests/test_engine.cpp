// Tests for the core aggregate risk engine: correctness against
// hand-computed cases, bit-identical equivalence of every engine across
// lookup representations (telemetry on and off), parameterized sweeps over
// event-chunk sizes, thread counts and partitions, and access-count
// prediction.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::Layer;
using core::LayerElt;
using core::Portfolio;
using core::YearLossTable;

constexpr std::size_t kUniverse = 20'000;

/// A hand-checkable YET: trial 0 = events {0, 1}, trial 1 = {2},
/// trial 2 = empty, trial 3 = {0, 0, 3}.
yet::YearEventTable tiny_yet() {
  return yet::YearEventTable({0, 1, 2, 0, 0, 3},
                             {0.1f, 0.2f, 0.5f, 0.1f, 0.2f, 0.3f},
                             {0, 2, 3, 3, 6});
}

/// ELT over events 0..3 with losses 100, 200, 300, 400.
elt::EventLossTable tiny_elt() {
  return elt::EventLossTable({{0, 100.0}, {1, 200.0}, {2, 300.0}, {3, 400.0}});
}

Portfolio tiny_portfolio(const financial::LayerTerms& terms,
                         elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Layer layer;
  layer.id = 7;
  LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(kind, tiny_elt(), 10);
  layer.elts.push_back(std::move(layer_elt));
  layer.terms = terms;
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    Layer layer;
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
      LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 10e3;
      layer_elt.terms.share = 0.9;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable synthetic_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 31;
  return yet::generate_uniform_yet(config, kUniverse);
}

/// The sequential reference engine (scalar lanes).
YearLossTable run_seq(const Portfolio& portfolio, const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
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

// --- Hand-computed correctness ------------------------------------------------

TEST(SequentialEngine, NoTermsSumsLosses) {
  const auto ylt = run_seq(tiny_portfolio(financial::LayerTerms{}), tiny_yet());
  ASSERT_EQ(ylt.num_trials(), 4u);
  EXPECT_DOUBLE_EQ(ylt.at(0, 0), 300.0);  // 100 + 200
  EXPECT_DOUBLE_EQ(ylt.at(0, 1), 300.0);  // 300
  EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0);    // empty trial
  EXPECT_DOUBLE_EQ(ylt.at(0, 3), 600.0);  // 100 + 100 + 400 (repeat events count twice)
}

TEST(SequentialEngine, OccurrenceTermsPerEvent) {
  // Retention 150, limit 200: event losses 100,200,300,400 -> 0,50,150,200.
  const auto ylt =
      run_seq(tiny_portfolio(financial::LayerTerms::cat_xl(150.0, 200.0)), tiny_yet());
  EXPECT_DOUBLE_EQ(ylt.at(0, 0), 50.0);   // 0 + 50
  EXPECT_DOUBLE_EQ(ylt.at(0, 1), 150.0);  // 150
  EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 3), 200.0);  // 0 + 0 + 200
}

TEST(SequentialEngine, AggregateTermsPerTrial) {
  // Aggregate retention 250, unlimited: trial sums 300,300,0,600 -> 50,50,0,350.
  const auto ylt = run_seq(
      tiny_portfolio(financial::LayerTerms::aggregate_xl(250.0, financial::kUnlimited)),
      tiny_yet());
  EXPECT_DOUBLE_EQ(ylt.at(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 3), 350.0);
}

TEST(SequentialEngine, CombinedOccurrenceAndAggregateTerms) {
  financial::LayerTerms terms;
  terms.occurrence_retention = 150.0;
  terms.occurrence_limit = 200.0;
  terms.aggregate_retention = 60.0;
  terms.aggregate_limit = 120.0;
  // Occurrence-net trial losses: 50, 150, 0, 200 -> aggregate band [60, 180]:
  // 0, 90, 0, 120.
  const auto ylt = run_seq(tiny_portfolio(terms), tiny_yet());
  EXPECT_DOUBLE_EQ(ylt.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 1), 90.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(ylt.at(0, 3), 120.0);
}

TEST(SequentialEngine, EltFinancialTermsAppliedBeforeCombination) {
  // Two copies of the tiny ELT with different shares: event 0 loss 100 ->
  // 0.5*100 + 0.25*100 = 75.
  Layer layer;
  layer.id = 1;
  for (double share : {0.5, 0.25}) {
    LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, tiny_elt(), 10);
    layer_elt.terms.share = share;
    layer.elts.push_back(std::move(layer_elt));
  }
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  const auto ylt = run_seq(portfolio, tiny_yet());
  EXPECT_DOUBLE_EQ(ylt.at(0, 1), 0.75 * 300.0);
}

TEST(SequentialEngine, MultipleLayersIndependent) {
  Portfolio portfolio = tiny_portfolio(financial::LayerTerms{});
  Portfolio second = tiny_portfolio(financial::LayerTerms::cat_xl(150.0, 200.0));
  second.layers[0].id = 8;
  portfolio.layers.push_back(second.layers[0]);

  const auto ylt = run_seq(portfolio, tiny_yet());
  ASSERT_EQ(ylt.num_layers(), 2u);
  EXPECT_DOUBLE_EQ(ylt.at(0, 0), 300.0);
  EXPECT_DOUBLE_EQ(ylt.at(1, 0), 50.0);
  EXPECT_EQ(ylt.index_of(7), 0u);
  EXPECT_EQ(ylt.index_of(8), 1u);
  EXPECT_THROW(ylt.index_of(99), std::out_of_range);
}

TEST(SequentialEngine, ValidatesPortfolio) {
  const Portfolio empty;
  EXPECT_THROW(run_seq(empty, tiny_yet()), std::invalid_argument);

  Portfolio no_elts;
  no_elts.layers.emplace_back();
  EXPECT_THROW(run_seq(no_elts, tiny_yet()), std::invalid_argument);
}

// --- Engine equivalence (the paper's cross-platform identity) -----------------

class EngineEquivalence : public ::testing::TestWithParam<elt::LookupKind> {};

TEST_P(EngineEquivalence, EveryEngineBitIdentical) {
  const Portfolio portfolio = synthetic_portfolio(2, 4, GetParam());
  const auto yet_table = synthetic_yet(500, 80.0);
  const auto sequential = run_seq(portfolio, yet_table);

  for (const auto kind : {core::EngineKind::kSequential, core::EngineKind::kParallel,
                          core::EngineKind::kOpenMp, core::EngineKind::kFused}) {
    SCOPED_TRACE(core::to_string(kind));
    expect_identical(sequential,
                     core::run({portfolio, yet_table, {.engine = kind, .num_threads = 4}}));
    // The paper's GPU chunk knob on the same schedule.
    expect_identical(sequential,
                     core::run({portfolio, yet_table,
                                {.engine = kind, .num_threads = 1, .chunk_size = 4}}));
    // Telemetry on: the block loop laps its phases and counts its lookups.
    core::AnalysisConfig telemetered{.engine = kind, .num_threads = 2};
    telemetered.telemetry.counters = true;
    expect_identical(sequential, core::run({portfolio, yet_table, telemetered}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EngineEquivalence,
                         ::testing::Values(elt::LookupKind::kDirectAccess,
                                           elt::LookupKind::kSortedVector,
                                           elt::LookupKind::kRobinHood,
                                           elt::LookupKind::kCuckoo,
                                           elt::LookupKind::kPagedDirect),
                         [](const auto& info) { return std::string(to_string(info.param)); });

class ChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkSweep, EventChunkMatchesSequentialAtEveryChunkSize) {
  const Portfolio portfolio = synthetic_portfolio(1, 3);
  const auto yet_table = synthetic_yet(300, 50.0);
  const auto sequential = run_seq(portfolio, yet_table);
  expect_identical(sequential,
                   core::run({portfolio, yet_table,
                              {.engine = core::EngineKind::kParallel,
                               .num_threads = 1,
                               .chunk_size = GetParam()}}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 12, 16, 64, 1024));

class ThreadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadSweep, ParallelMatchesSequentialAtEveryThreadCount) {
  const Portfolio portfolio = synthetic_portfolio(1, 3);
  const auto yet_table = synthetic_yet(257, 40.0);  // prime: uneven partitions
  const auto sequential = run_seq(portfolio, yet_table);

  for (const auto partition : {parallel::Partition::kStatic, parallel::Partition::kDynamic,
                               parallel::Partition::kGuided}) {
    expect_identical(sequential, core::run({portfolio, yet_table,
                                            {.engine = core::EngineKind::kParallel,
                                             .num_threads = GetParam(),
                                             .partition = partition,
                                             .partition_chunk = 16}}));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(1, 2, 3, 8, 32));

TEST(EngineEquivalenceExtra, MixedLookupKindsAcrossElts) {
  // One layer whose ELTs use different representations: the generic path.
  Layer layer;
  layer.id = 1;
  const elt::LookupKind kinds[] = {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
                                   elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo};
  for (std::size_t e = 0; e < 4; ++e) {
    elt::SyntheticEltConfig config;
    config.catalog_size = kUniverse;
    config.entries = 1'000;
    config.elt_id = e;
    LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(kinds[e], elt::make_synthetic_elt(config), kUniverse);
    layer.elts.push_back(std::move(layer_elt));
  }
  EXPECT_FALSE(layer.all_direct_access());
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));

  const auto yet_table = synthetic_yet(200, 60.0);
  const auto sequential = run_seq(portfolio, yet_table);
  expect_identical(sequential, core::run({portfolio, yet_table,
                                          {.engine = core::EngineKind::kParallel,
                                           .num_threads = 1,
                                           .chunk_size = 8}}));
  expect_identical(sequential, core::run({portfolio, yet_table,
                                          {.engine = core::EngineKind::kParallel,
                                           .num_threads = 3,
                                           .partition_chunk = 64}}));
}

TEST(EngineEquivalenceExtra, LookupKindDoesNotChangeResults) {
  // The paper's claim that the representation is a pure performance choice.
  const auto yet_table = synthetic_yet(200, 60.0);
  const auto direct =
      run_seq(synthetic_portfolio(1, 3, elt::LookupKind::kDirectAccess), yet_table);
  for (const auto kind : {elt::LookupKind::kSortedVector, elt::LookupKind::kRobinHood,
                          elt::LookupKind::kCuckoo}) {
    expect_identical(direct, run_seq(synthetic_portfolio(1, 3, kind), yet_table));
  }
}

// --- Access-count prediction ------------------------------------------------

TEST(PredictAccessCounts, ScalesLinearlyInAllFourParameters) {
  // The asymptotic claim behind Fig 2: doubling any size parameter doubles
  // the relevant access counts.
  const auto yet1 = synthetic_yet(100, 50.0);
  const auto yet2 = synthetic_yet(200, 50.0);

  const Portfolio p1 = synthetic_portfolio(1, 3);
  const Portfolio p2_layers = synthetic_portfolio(2, 3);
  const Portfolio p2_elts = synthetic_portfolio(1, 6);

  const auto base = core::predict_access_counts(p1, yet1);
  const auto double_trials = core::predict_access_counts(p1, yet2);
  const auto double_layers = core::predict_access_counts(p2_layers, yet1);
  const auto double_elts = core::predict_access_counts(p2_elts, yet1);

  EXPECT_NEAR(static_cast<double>(double_trials.elt_lookups),
              2.0 * static_cast<double>(base.elt_lookups),
              0.1 * static_cast<double>(base.elt_lookups));
  EXPECT_EQ(double_layers.elt_lookups, 2 * base.elt_lookups);
  EXPECT_EQ(double_elts.elt_lookups, 2 * base.elt_lookups);
  EXPECT_EQ(double_layers.events_fetched, 2 * base.events_fetched);
  EXPECT_EQ(double_elts.events_fetched, base.events_fetched);  // ELTs don't refetch
}

// --- YLT container --------------------------------------------------------------

TEST(YearLossTable, PortfolioLossesSumAcrossLayers) {
  core::YearLossTable ylt({1, 2}, 3);
  ylt.at(0, 0) = 1.0;
  ylt.at(0, 1) = 2.0;
  ylt.at(1, 0) = 10.0;
  ylt.at(1, 2) = 30.0;
  const auto total = ylt.portfolio_losses();
  ASSERT_EQ(total.size(), 3u);
  EXPECT_DOUBLE_EQ(total[0], 11.0);
  EXPECT_DOUBLE_EQ(total[1], 2.0);
  EXPECT_DOUBLE_EQ(total[2], 30.0);
}

TEST(YearLossTable, LayerViewsAreContiguousAndWritable) {
  core::YearLossTable ylt({5}, 4);
  auto view = ylt.layer_losses(0);
  view[2] = 9.0;
  EXPECT_DOUBLE_EQ(ylt.at(0, 2), 9.0);
  EXPECT_EQ(view.size(), 4u);
}

}  // namespace
