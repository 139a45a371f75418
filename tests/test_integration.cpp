// End-to-end integration tests: the full analytical pipeline of the paper
// (catalog -> exposure -> cat model -> ELT -> YET -> aggregate analysis ->
// YLT -> risk metrics -> pricing), plus cross-module consistency checks.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "catmodel/cat_model.hpp"
#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/occurrence.hpp"
#include "pricing/pricing.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

/// The sequential reference engine.
core::YearLossTable run_seq(const core::Portfolio& portfolio,
                            const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
}

class FullPipeline : public ::testing::Test {
 protected:
  static constexpr std::size_t kCatalogEvents = 4'000;

  void SetUp() override {
    catalog::CatalogConfig catalog_config;
    catalog_config.num_events = kCatalogEvents;
    catalog_config.expected_events_per_year = 300.0;
    catalog_config.seed = 5;
    catalog_ = catalog::build_catalog(catalog_config);

    // Three exposure books -> three ELTs covering the same catalog.
    for (std::uint64_t book = 0; book < 3; ++book) {
      exposure::ExposureConfig exposure_config;
      exposure_config.num_sites = 600;
      exposure_config.seed = 100 + book;
      books_.push_back(exposure::build_exposure(exposure_config));
      elts_.push_back(catmodel::run_cat_model(catalog_, books_.back()));
    }

    yet::YetConfig yet_config;
    yet_config.num_trials = 2'000;
    yet_config.events_per_trial = 300.0;
    yet_config.count_model = yet::CountModel::kPoisson;
    yet_config.seed = 6;
    yet_ = yet::generate_yet(yet_config, catalog_);
  }

  core::Portfolio make_portfolio() const {
    core::Layer layer;
    layer.id = 1;
    for (const auto& table : elts_) {
      core::LayerElt layer_elt;
      layer_elt.lookup =
          elt::make_lookup(elt::LookupKind::kDirectAccess, table, kCatalogEvents);
      layer_elt.terms.share = 0.9;
      layer.elts.push_back(std::move(layer_elt));
    }
    // Calibrated against the synthetic book: mean per-trial maximum
    // occurrence is ~$96M, so 50M xs 100M is a realistically remote
    // Cat XL layer that attaches in roughly half the trials.
    layer.terms.occurrence_retention = 100e6;
    layer.terms.occurrence_limit = 50e6;
    layer.terms.aggregate_retention = 10e6;
    layer.terms.aggregate_limit = 200e6;

    core::Portfolio portfolio;
    portfolio.layers.push_back(std::move(layer));
    return portfolio;
  }

  catalog::EventCatalog catalog_;
  std::vector<exposure::ExposureSet> books_;
  std::vector<elt::EventLossTable> elts_;
  yet::YearEventTable yet_;
};

TEST_F(FullPipeline, CatModelProducesUsableElts) {
  for (const auto& table : elts_) {
    EXPECT_GT(table.size(), 50u);
    EXPECT_LT(table.size(), kCatalogEvents);
    EXPECT_GT(table.total_loss(), 0.0);
  }
}

TEST_F(FullPipeline, EndToEndProducesFiniteNonTrivialYlt) {
  const auto ylt = core::run({make_portfolio(), yet_,
                              {.engine = core::EngineKind::kParallel,
                               .num_threads = 2,
                               .partition_chunk = 128}});
  ASSERT_EQ(ylt.num_trials(), 2'000u);
  const auto losses = ylt.layer_losses(0);
  double total = 0.0;
  for (double loss : losses) {
    ASSERT_TRUE(std::isfinite(loss));
    ASSERT_GE(loss, 0.0);
    ASSERT_LE(loss, 200e6 + 1e-6);  // aggregate limit is a hard cap
    total += loss;
  }
  EXPECT_GT(total, 0.0) << "the layer never attaches: calibration is off";
}

TEST_F(FullPipeline, AllEnginesAgreeOnRealData) {
  const auto portfolio = make_portfolio();
  const auto sequential = run_seq(portfolio, yet_);
  const auto parallel = core::run({portfolio, yet_,
                                   {.engine = core::EngineKind::kParallel,
                                    .num_threads = 4,
                                    .partition_chunk = 64}});
  const auto chunked = core::run({portfolio, yet_,
                                  {.engine = core::EngineKind::kParallel,
                                   .num_threads = 2,
                                   .chunk_size = 4}});
  for (std::size_t trial = 0; trial < yet_.num_trials(); ++trial) {
    ASSERT_EQ(sequential.at(0, trial), parallel.at(0, trial)) << trial;
    ASSERT_EQ(sequential.at(0, trial), chunked.at(0, trial)) << trial;
  }
}

TEST_F(FullPipeline, RiskMetricsAreOrderedSensibly) {
  const auto ylt = run_seq(make_portfolio(), yet_);
  const metrics::EpCurve curve(ylt.layer_losses(0));

  EXPECT_LE(curve.probable_maximum_loss(10.0), curve.probable_maximum_loss(100.0));
  EXPECT_LE(curve.probable_maximum_loss(100.0), curve.probable_maximum_loss(250.0));
  EXPECT_LE(curve.expected_loss(), curve.tail_value_at_risk(0.9));
  EXPECT_GE(curve.tail_value_at_risk(0.99), curve.probable_maximum_loss(100.0) * 0.99);
}

TEST_F(FullPipeline, OepBelowAepEverywhere) {
  const auto portfolio = make_portfolio();
  const auto ylt = run_seq(portfolio, yet_);
  const auto maxima = metrics::max_occurrence_losses(portfolio.layers[0], yet_);
  // Max single occurrence (pre-aggregate-terms) can exceed the
  // aggregate-capped trial loss only via the aggregate retention; with our
  // retention of 10e6 allow that wedge.
  const metrics::EpCurve aep(ylt.layer_losses(0));
  const metrics::EpCurve oep(maxima);
  EXPECT_LE(oep.expected_loss(), aep.expected_loss() + 10e6);
}

TEST_F(FullPipeline, PricingProducesCoherentQuote) {
  const auto portfolio = make_portfolio();
  const auto ylt = run_seq(portfolio, yet_);
  const auto quote = pricing::price_layer(ylt.layer_losses(0), portfolio.layers[0].terms);
  EXPECT_GT(quote.expected_loss, 0.0);
  EXPECT_GE(quote.technical_premium, quote.expected_loss);
  EXPECT_GT(quote.rate_on_line, 0.0);
  EXPECT_LT(quote.rate_on_line, 1.0);
}

TEST_F(FullPipeline, SerializationRoundTripPreservesAnalysis) {
  // Persist the ELTs and YET, reload, re-run: identical YLT.
  const auto portfolio = make_portfolio();
  const auto reference = run_seq(portfolio, yet_);

  std::stringstream yet_stream;
  io::write_yet_binary(yet_stream, yet_);
  const auto yet_restored = io::read_yet_binary(yet_stream);

  core::Portfolio restored_portfolio;
  core::Layer layer = portfolio.layers[0];
  layer.elts.clear();
  for (const auto& table : elts_) {
    std::stringstream elt_stream;
    io::write_elt_binary(elt_stream, table);
    const auto elt_restored = io::read_elt_binary(elt_stream);
    core::LayerElt layer_elt;
    layer_elt.lookup =
        elt::make_lookup(elt::LookupKind::kDirectAccess, elt_restored, kCatalogEvents);
    layer_elt.terms.share = 0.9;
    layer.elts.push_back(std::move(layer_elt));
  }
  restored_portfolio.layers.push_back(std::move(layer));

  const auto rerun = run_seq(restored_portfolio, yet_restored);
  for (std::size_t trial = 0; trial < reference.num_trials(); ++trial) {
    ASSERT_EQ(reference.at(0, trial), rerun.at(0, trial));
  }
}

TEST_F(FullPipeline, TighterTermsNeverIncreaseLoss) {
  // Monotonicity across the whole pipeline: shrinking the occurrence limit
  // cannot increase any trial loss.
  auto portfolio = make_portfolio();
  const auto base = run_seq(portfolio, yet_);
  portfolio.layers[0].terms.occurrence_limit = 10e6;  // was 50e6
  const auto tighter = run_seq(portfolio, yet_);
  for (std::size_t trial = 0; trial < base.num_trials(); ++trial) {
    ASSERT_LE(tighter.at(0, trial), base.at(0, trial) + 1e-9);
  }
}

TEST_F(FullPipeline, HigherRetentionNeverIncreasesLoss) {
  auto portfolio = make_portfolio();
  const auto base = run_seq(portfolio, yet_);
  portfolio.layers[0].terms.occurrence_retention = 120e6;  // was 100e6
  const auto higher = run_seq(portfolio, yet_);
  for (std::size_t trial = 0; trial < base.num_trials(); ++trial) {
    ASSERT_LE(higher.at(0, trial), base.at(0, trial) + 1e-9);
  }
}

TEST_F(FullPipeline, MoreTrialsConvergeExpectedLoss) {
  // Monte Carlo sanity: EL from the first 1000 trials should be close to
  // EL from all 2000 (same substreams, so this is a pure convergence test).
  const auto portfolio = make_portfolio();
  const auto ylt = run_seq(portfolio, yet_);
  const auto losses = ylt.layer_losses(0);
  double first_half = 0.0, all = 0.0;
  for (std::size_t trial = 0; trial < losses.size(); ++trial) {
    if (trial < losses.size() / 2) first_half += losses[trial];
    all += losses[trial];
  }
  const double el_half = first_half / (static_cast<double>(losses.size()) / 2.0);
  const double el_all = all / static_cast<double>(losses.size());
  EXPECT_NEAR(el_half, el_all, 0.35 * el_all + 1e-9);
}

}  // namespace
