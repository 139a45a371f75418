// Edge-case and property tests for the engines beyond the main
// equivalence suite: degenerate YETs, extreme terms, invariants under
// randomized portfolios (seed-parameterized TEST_P sweeps).
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "financial/trial_accumulator.hpp"
#include "rng/stream.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::EngineKind;

/// The sequential reference engine (scalar lanes).
core::YearLossTable run_seq(const core::Portfolio& portfolio,
                            const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = EngineKind::kSequential}});
}

core::Portfolio one_layer_portfolio(const financial::LayerTerms& terms,
                                    std::size_t universe = 1'000) {
  elt::SyntheticEltConfig config;
  config.catalog_size = universe;
  config.entries = universe / 4;
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms = terms;
  layer.elts.push_back(
      {elt::make_lookup(elt::LookupKind::kDirectAccess, elt::make_synthetic_elt(config),
                        universe),
       {}});
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

// --- Degenerate YETs -------------------------------------------------------------

TEST(EngineEdge, AllTrialsEmpty) {
  const yet::YearEventTable yet_table({}, {}, {0, 0, 0, 0});
  const auto portfolio = one_layer_portfolio({});
  for (const auto& ylt :
       {run_seq(portfolio, yet_table),
        core::run({portfolio, yet_table, {.engine = EngineKind::kParallel, .num_threads = 2}}),
        core::run({portfolio, yet_table,
                   {.engine = EngineKind::kParallel, .num_threads = 1, .chunk_size = 4}}),
        core::run({portfolio, yet_table, {.engine = EngineKind::kFused, .num_threads = 2}})}) {
    ASSERT_EQ(ylt.num_trials(), 3u);
    for (std::size_t trial = 0; trial < 3; ++trial) {
      EXPECT_DOUBLE_EQ(ylt.at(0, trial), 0.0);
    }
  }
}

TEST(EngineEdge, SingleTrialSingleEvent) {
  const yet::YearEventTable yet_table({5}, {0.5f}, {0, 1});
  const elt::EventLossTable table({{5, 123.0}});
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.elts.push_back({elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10), {}});
  portfolio.layers.push_back(std::move(layer));
  EXPECT_DOUBLE_EQ(run_seq(portfolio, yet_table).at(0, 0), 123.0);
  EXPECT_DOUBLE_EQ(core::run({portfolio, yet_table,
                              {.engine = EngineKind::kParallel, .num_threads = 1,
                               .chunk_size = 16}})
                       .at(0, 0),
                   123.0);
}

TEST(EngineEdge, OneGiantTrialAmongTiny) {
  // Load imbalance: one trial holds almost all events.
  std::vector<yet::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets{0};
  rng::Stream stream(3, 0, 0);
  for (std::size_t trial = 0; trial < 16; ++trial) {
    const std::size_t count = trial == 7 ? 5'000 : 2;
    for (std::size_t k = 0; k < count; ++k) {
      events.push_back(static_cast<yet::EventId>(stream.uniform_below(1'000)));
      times.push_back(static_cast<float>(k) / static_cast<float>(count));
    }
    offsets.push_back(events.size());
  }
  const yet::YearEventTable yet_table(std::move(events), std::move(times), std::move(offsets));
  const auto portfolio = one_layer_portfolio({});

  const auto sequential = run_seq(portfolio, yet_table);
  for (const auto engine : {EngineKind::kParallel, EngineKind::kFused}) {
    const auto pooled_ylt =
        core::run({portfolio, yet_table, {.engine = engine, .num_threads = 4}});
    for (std::size_t trial = 0; trial < 16; ++trial) {
      ASSERT_EQ(pooled_ylt.at(0, trial), sequential.at(0, trial));
    }
  }
}

// --- Extreme terms ------------------------------------------------------------------

TEST(EngineEdge, ZeroOccurrenceLimitZeroesEverything) {
  financial::LayerTerms terms;
  terms.occurrence_limit = 0.0;
  const auto portfolio = one_layer_portfolio(terms);
  yet::YetConfig config;
  config.num_trials = 20;
  config.events_per_trial = 50.0;
  const auto ylt = run_seq(portfolio, yet::generate_uniform_yet(config, 1'000));
  for (std::size_t trial = 0; trial < 20; ++trial) {
    EXPECT_DOUBLE_EQ(ylt.at(0, trial), 0.0);
  }
}

TEST(EngineEdge, ZeroAggregateLimitZeroesEverything) {
  const auto portfolio =
      one_layer_portfolio(financial::LayerTerms::aggregate_xl(0.0, 0.0));
  yet::YetConfig config;
  config.num_trials = 20;
  config.events_per_trial = 50.0;
  const auto ylt = run_seq(portfolio, yet::generate_uniform_yet(config, 1'000));
  for (std::size_t trial = 0; trial < 20; ++trial) {
    EXPECT_DOUBLE_EQ(ylt.at(0, trial), 0.0);
  }
}

TEST(EngineEdge, AstronomicalRetentionZeroesEverything) {
  const auto portfolio = one_layer_portfolio(financial::LayerTerms::cat_xl(1e300, 1.0));
  yet::YetConfig config;
  config.num_trials = 10;
  config.events_per_trial = 30.0;
  const auto ylt = run_seq(portfolio, yet::generate_uniform_yet(config, 1'000));
  for (std::size_t trial = 0; trial < 10; ++trial) {
    EXPECT_DOUBLE_EQ(ylt.at(0, trial), 0.0);
  }
}

// --- Randomized portfolio invariants (property sweep over seeds) ---------------------

class EngineInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  struct Setup {
    core::Portfolio portfolio;
    yet::YearEventTable yet_table;
    financial::LayerTerms terms;
  };

  static Setup random_setup(std::uint64_t seed) {
    rng::Stream stream(seed, 77, 0);
    financial::LayerTerms terms;
    terms.occurrence_retention = stream.uniform01() * 500e3;
    terms.occurrence_limit = 100e3 + stream.uniform01() * 5e6;
    terms.aggregate_retention = stream.uniform01() * 1e6;
    terms.aggregate_limit = 1e6 + stream.uniform01() * 50e6;

    constexpr std::size_t kUniverse = 2'000;
    core::Layer layer;
    layer.id = 1;
    const auto num_elts = 1 + stream.uniform_below(6);
    for (std::uint64_t e = 0; e < num_elts; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 200 + stream.uniform_below(600);
      config.seed = seed;
      config.elt_id = e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                          elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.share = 0.5 + 0.5 * stream.uniform01();
      layer_elt.terms.occurrence_retention = stream.uniform01() * 50e3;
      layer.elts.push_back(std::move(layer_elt));
    }
    layer.terms = terms;
    core::Portfolio portfolio;
    portfolio.layers.push_back(std::move(layer));

    yet::YetConfig config;
    config.num_trials = 100;
    config.events_per_trial = 40.0;
    config.count_model = yet::CountModel::kPoisson;
    config.seed = seed + 1;
    return {std::move(portfolio), yet::generate_uniform_yet(config, kUniverse), terms};
  }
};

TEST_P(EngineInvariants, TrialLossesWithinAggregateBand) {
  const Setup setup = random_setup(GetParam());
  const auto ylt = run_seq(setup.portfolio, setup.yet_table);
  for (std::size_t trial = 0; trial < ylt.num_trials(); ++trial) {
    const double loss = ylt.at(0, trial);
    ASSERT_TRUE(std::isfinite(loss));
    ASSERT_GE(loss, 0.0);
    ASSERT_LE(loss, setup.terms.aggregate_limit + 1e-6);
  }
}

TEST_P(EngineInvariants, TrialLossEqualsAggregateBandOfOccurrenceSum) {
  // Cross-implementation identity: the engine's per-trial recurrence must
  // equal EoL_aggregate(sum of occurrence-net losses) computed directly.
  const Setup setup = random_setup(GetParam());
  const auto ylt = run_seq(setup.portfolio, setup.yet_table);
  const core::Layer& layer = setup.portfolio.layers[0];

  for (std::size_t trial = 0; trial < setup.yet_table.num_trials(); ++trial) {
    double occurrence_sum = 0.0;
    for (const yet::EventId event : setup.yet_table.trial_events(trial)) {
      double combined = 0.0;
      for (const core::LayerElt& layer_elt : layer.elts) {
        combined += layer_elt.terms.apply(layer_elt.lookup->lookup(event));
      }
      occurrence_sum += layer.terms.apply_occurrence(combined);
    }
    const double direct = layer.terms.apply_aggregate(occurrence_sum);
    ASSERT_NEAR(ylt.at(0, trial), direct, 1e-6 * (1.0 + direct)) << "trial " << trial;
  }
}

TEST_P(EngineInvariants, AllEnginesAgreeOnRandomSetups) {
  const Setup setup = random_setup(GetParam());
  const auto sequential = run_seq(setup.portfolio, setup.yet_table);
  const auto parallel_ylt = core::run(
      {setup.portfolio, setup.yet_table, {.engine = EngineKind::kParallel, .num_threads = 3}});
  const auto chunked = core::run({setup.portfolio, setup.yet_table,
                                  {.engine = EngineKind::kParallel,
                                   .num_threads = 1,
                                   .chunk_size = 5}});
  const auto fused = core::run(
      {setup.portfolio, setup.yet_table, {.engine = EngineKind::kFused, .num_threads = 2}});
  for (std::size_t trial = 0; trial < sequential.num_trials(); ++trial) {
    ASSERT_EQ(sequential.at(0, trial), parallel_ylt.at(0, trial));
    ASSERT_EQ(sequential.at(0, trial), chunked.at(0, trial));
    ASSERT_EQ(sequential.at(0, trial), fused.at(0, trial));
  }
}

TEST_P(EngineInvariants, ScalingAllEltSharesScalesPreTermLosses) {
  // With no layer terms, the YLT is linear in the ELT share.
  Setup setup = random_setup(GetParam());
  setup.portfolio.layers[0].terms = financial::LayerTerms{};
  const auto base = run_seq(setup.portfolio, setup.yet_table);

  auto scaled = setup.portfolio;
  for (auto& layer_elt : scaled.layers[0].elts) layer_elt.terms.share *= 0.5;
  const auto halved = run_seq(scaled, setup.yet_table);
  for (std::size_t trial = 0; trial < base.num_trials(); ++trial) {
    ASSERT_NEAR(halved.at(0, trial), 0.5 * base.at(0, trial),
                1e-9 * (1.0 + base.at(0, trial)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants,
                         ::testing::Values(11, 23, 37, 59, 71, 97, 113));

// --- Accumulator vs engine identity under infinity edge -----------------------------

TEST(EngineEdge, UnlimitedEverythingEqualsPlainSum) {
  const auto portfolio = one_layer_portfolio({});
  yet::YetConfig config;
  config.num_trials = 30;
  config.events_per_trial = 25.0;
  const auto yet_table = yet::generate_uniform_yet(config, 1'000);
  const auto ylt = run_seq(portfolio, yet_table);
  const auto& layer = portfolio.layers[0];
  for (std::size_t trial = 0; trial < 30; ++trial) {
    double sum = 0.0;
    for (const yet::EventId event : yet_table.trial_events(trial)) {
      sum += layer.elts[0].lookup->lookup(event);
    }
    ASSERT_NEAR(ylt.at(0, trial), sum, 1e-9 * (1.0 + sum));
  }
}

}  // namespace
