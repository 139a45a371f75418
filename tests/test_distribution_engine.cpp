// Tests for the distribution-mode engine (paper §IV extension: losses as
// distributions with convolution) and the lognormal discretizer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/distribution_engine.hpp"
#include "core/analysis.hpp"
#include "elt/lookup.hpp"
#include "financial/discretize.hpp"
#include "metrics/statistics.hpp"
#include "yet/year_event_table.hpp"

namespace {

using namespace are;

/// The sequential reference engine.
core::YearLossTable run_seq(const core::Portfolio& portfolio,
                            const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
}

// --- Discretizer ------------------------------------------------------------

TEST(Discretize, LognormalCdfSanity) {
  EXPECT_DOUBLE_EQ(financial::lognormal_cdf(0.0, 0.0, 1.0), 0.0);
  EXPECT_NEAR(financial::lognormal_cdf(1.0, 0.0, 1.0), 0.5, 1e-12);  // median e^0
  EXPECT_GT(financial::lognormal_cdf(10.0, 0.0, 1.0), 0.98);
}

TEST(Discretize, PreservesMeanApproximately) {
  const double mean = 100.0;
  const auto dist = financial::discretize_lognormal(mean, 0.5, 2.0, 512);
  EXPECT_NEAR(dist.mean(), mean, 0.05 * mean);
}

TEST(Discretize, ZeroCvGivesPointMass) {
  const auto dist = financial::discretize_lognormal(40.0, 0.0, 10.0, 16);
  EXPECT_DOUBLE_EQ(dist.variance(), 0.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 40.0);
}

TEST(Discretize, ZeroMeanGivesZeroPointMass) {
  const auto dist = financial::discretize_lognormal(0.0, 0.5, 1.0, 16);
  EXPECT_DOUBLE_EQ(dist.mean(), 0.0);
}

TEST(Discretize, HigherCvMoreVariance) {
  const auto narrow = financial::discretize_lognormal(100.0, 0.2, 1.0, 1024);
  const auto wide = financial::discretize_lognormal(100.0, 0.8, 1.0, 1024);
  EXPECT_GT(wide.variance(), narrow.variance());
}

TEST(Discretize, MassSumsToOne) {
  const auto dist = financial::discretize_lognormal(50.0, 0.6, 5.0, 64);
  double total = 0.0;
  for (double p : dist.mass()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Discretize, RejectsBadArguments) {
  EXPECT_THROW(financial::discretize_lognormal(-1.0, 0.5, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(financial::discretize_lognormal(1.0, -0.5, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(financial::discretize_lognormal(1.0, 0.5, 0.0, 16), std::invalid_argument);
  EXPECT_THROW(financial::discretize_lognormal(1.0, 0.5, 1.0, 0), std::invalid_argument);
}

// --- Distribution engine ------------------------------------------------------

class DistributionEngineTest : public ::testing::Test {
 protected:
  static core::Portfolio make_portfolio(financial::LayerTerms terms) {
    const elt::EventLossTable table({{0, 100.0}, {1, 200.0}, {2, 300.0}});
    core::Layer layer;
    layer.id = 1;
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10);
    layer.elts.push_back(std::move(layer_elt));
    layer.terms = terms;
    core::Portfolio portfolio;
    portfolio.layers.push_back(std::move(layer));
    return portfolio;
  }

  static yet::YearEventTable make_yet() {
    // Trial 0: {0,1}; trial 1: {2}; trial 2: {}.
    return yet::YearEventTable({0, 1, 2}, {0.1f, 0.2f, 0.3f}, {0, 2, 3, 3});
  }
};

TEST_F(DistributionEngineTest, ZeroCvReproducesScalarEngine) {
  const auto portfolio = make_portfolio(financial::LayerTerms{});
  const auto yet_table = make_yet();

  core::DistributionOptions options;
  options.coefficient_of_variation = 0.0;
  options.grid_size = 2048;
  options.bin_width = 1.0;  // exact grid for integer losses
  const auto result = core::run_distribution_analysis(portfolio, yet_table, options);

  const auto ylt = run_seq(portfolio, yet_table);
  const double scalar_mean = metrics::summarize(ylt.layer_losses(0)).mean();
  ASSERT_EQ(result.layer_distributions.size(), 1u);
  EXPECT_NEAR(result.layer_distributions[0].mean(), scalar_mean, 1e-9);
}

TEST_F(DistributionEngineTest, ZeroCvWithTermsReproducesScalarEngine) {
  financial::LayerTerms terms;
  terms.occurrence_retention = 150.0;
  terms.occurrence_limit = 100.0;
  terms.aggregate_retention = 30.0;
  terms.aggregate_limit = 120.0;
  const auto portfolio = make_portfolio(terms);
  const auto yet_table = make_yet();

  core::DistributionOptions options;
  options.coefficient_of_variation = 0.0;
  options.grid_size = 1024;
  options.bin_width = 1.0;
  const auto result = core::run_distribution_analysis(portfolio, yet_table, options);

  const auto ylt = run_seq(portfolio, yet_table);
  EXPECT_NEAR(result.layer_distributions[0].mean(),
              metrics::summarize(ylt.layer_losses(0)).mean(), 1e-9);
}

TEST_F(DistributionEngineTest, SecondaryUncertaintyWidensButKeepsMean) {
  // Without terms, E[sum of lognormals] == sum of means: the distribution
  // engine's mean must match the scalar mean even at cv > 0 (up to grid
  // error), while the variance becomes positive.
  const auto portfolio = make_portfolio(financial::LayerTerms{});
  const auto yet_table = make_yet();

  core::DistributionOptions options;
  options.coefficient_of_variation = 0.4;
  options.grid_size = 4096;
  options.bin_width = 0.5;
  const auto result = core::run_distribution_analysis(portfolio, yet_table, options);

  const auto ylt = run_seq(portfolio, yet_table);
  const double scalar_mean = metrics::summarize(ylt.layer_losses(0)).mean();
  EXPECT_NEAR(result.layer_distributions[0].mean(), scalar_mean, 0.03 * scalar_mean);
  EXPECT_GT(result.layer_distributions[0].variance(), 0.0);
}

TEST_F(DistributionEngineTest, UncertaintyChangesCededMeanUnderTerms) {
  // With a retention, Jensen's inequality bites: E[EoL(X)] != EoL(E[X]).
  // A retention just above the mean means only the upside tail cedes, so
  // the distribution-mode ceded mean must *exceed* the scalar one.
  financial::LayerTerms terms;
  terms.occurrence_retention = 350.0;  // above every mean event loss
  const auto portfolio = make_portfolio(terms);
  const auto yet_table = make_yet();

  const auto ylt = run_seq(portfolio, yet_table);
  const double scalar_mean = metrics::summarize(ylt.layer_losses(0)).mean();
  EXPECT_DOUBLE_EQ(scalar_mean, 0.0);  // mean losses never reach the retention

  core::DistributionOptions options;
  options.coefficient_of_variation = 0.8;
  options.grid_size = 2048;
  options.bin_width = 1.0;
  const auto result = core::run_distribution_analysis(portfolio, yet_table, options);
  EXPECT_GT(result.layer_distributions[0].mean(), 0.0);
}

TEST_F(DistributionEngineTest, AggregateLimitCapsSupport) {
  financial::LayerTerms terms;
  terms.aggregate_limit = 250.0;
  const auto portfolio = make_portfolio(terms);

  core::DistributionOptions options;
  options.coefficient_of_variation = 0.5;
  options.grid_size = 1024;
  options.bin_width = 1.0;
  const auto result = core::run_distribution_analysis(portfolio, make_yet(), options);
  // No mass beyond the aggregate limit.
  EXPECT_DOUBLE_EQ(result.layer_distributions[0].exceedance(250.0), 0.0);
}

TEST_F(DistributionEngineTest, AutoBinWidthCoversAggregateLimit) {
  financial::LayerTerms terms;
  terms.aggregate_retention = 100.0;
  terms.aggregate_limit = 400.0;
  const auto portfolio = make_portfolio(terms);

  core::DistributionOptions options;  // bin_width = 0 -> auto
  options.grid_size = 256;
  const auto result = core::run_distribution_analysis(portfolio, make_yet(), options);
  ASSERT_EQ(result.bin_widths.size(), 1u);
  // Grid top >= retention + limit.
  EXPECT_GE(result.bin_widths[0] * static_cast<double>(options.grid_size - 1), 500.0 - 1e-9);
}

TEST_F(DistributionEngineTest, EmptyTrialContributesPointMassAtZero) {
  const auto portfolio = make_portfolio(financial::LayerTerms{});
  const auto result = core::run_distribution_analysis(portfolio, make_yet(),
                                                      {1024, 1.0, 0.3});
  // Trial 2 is empty: at least 1/3 of annual mass sits at zero.
  EXPECT_GE(result.layer_distributions[0].mass()[0], 1.0 / 3.0 - 1e-9);
}

TEST_F(DistributionEngineTest, RejectsBadOptions) {
  const auto portfolio = make_portfolio(financial::LayerTerms{});
  EXPECT_THROW(core::run_distribution_analysis(portfolio, make_yet(), {1, 1.0, 0.3}),
               std::invalid_argument);
  EXPECT_THROW(core::run_distribution_analysis(portfolio, make_yet(), {16, -1.0, 0.3}),
               std::invalid_argument);
}

}  // namespace
