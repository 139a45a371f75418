// Tests for the metrics module: running statistics, quantiles, TVaR, EP
// curves (PML) and occurrence extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/analysis.hpp"
#include "elt/lookup.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/occurrence.hpp"
#include "metrics/statistics.hpp"

namespace {

using namespace are;
using metrics::EpCurve;
using metrics::RunningStats;

// --- RunningStats ------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(42.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 42.0);
  EXPECT_DOUBLE_EQ(stats.max(), 42.0);
}

TEST(RunningStats, NumericalStabilityOnOffsetData) {
  // Welford must survive a large common offset.
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(1e9 + (i % 2));
  EXPECT_NEAR(stats.variance(), 0.25025, 1e-3);
}

// --- Quantiles and TVaR --------------------------------------------------------

TEST(Quantile, InterpolatesType7) {
  const std::vector<double> sample{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 1.0 / 3.0), 20.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> sample{7.0};
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(sample, 1.0), 7.0);
}

TEST(Quantile, Errors) {
  const std::vector<double> empty;
  EXPECT_THROW(metrics::quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> sample{1.0};
  EXPECT_THROW(metrics::quantile(sample, -0.1), std::invalid_argument);
  EXPECT_THROW(metrics::quantile(sample, 1.1), std::invalid_argument);
}

TEST(TailValueAtRisk, AveragesWorstTail) {
  std::vector<double> sample(100);
  std::iota(sample.begin(), sample.end(), 1.0);  // 1..100
  // 0.95 quantile (type 7) = 95.05; tail {96..100} averages 98.
  EXPECT_DOUBLE_EQ(metrics::tail_value_at_risk(sample, 0.95), 98.0);
  // TVaR at 0 is the overall mean of values >= min.
  EXPECT_DOUBLE_EQ(metrics::tail_value_at_risk(sample, 0.0), 50.5);
}

TEST(TailValueAtRisk, DominatesQuantile) {
  std::vector<double> sample(1000);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = std::pow(static_cast<double>(i), 1.5);
  }
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_GE(metrics::tail_value_at_risk(sample, q), metrics::quantile(sample, q));
  }
}

// --- EP curve --------------------------------------------------------------------

class EpCurveTest : public ::testing::Test {
 protected:
  static EpCurve uniform_curve() {
    std::vector<double> losses(1000);
    std::iota(losses.begin(), losses.end(), 1.0);  // 1..1000
    return EpCurve(losses);
  }
};

TEST_F(EpCurveTest, ExpectedLoss) {
  EXPECT_DOUBLE_EQ(uniform_curve().expected_loss(), 500.5);
}

TEST_F(EpCurveTest, PmlAtReturnPeriods) {
  const EpCurve curve = uniform_curve();
  // 1000 trials of losses 1..1000: the 100-year PML is the 0.99 quantile.
  EXPECT_NEAR(curve.probable_maximum_loss(100.0), 990.0, 1.0);
  EXPECT_NEAR(curve.probable_maximum_loss(10.0), 900.0, 1.0);
  EXPECT_NEAR(curve.probable_maximum_loss(2.0), 500.0, 1.0);
}

TEST_F(EpCurveTest, PmlMonotoneInReturnPeriod) {
  const EpCurve curve = uniform_curve();
  double previous = 0.0;
  for (double years : metrics::standard_return_periods()) {
    const double pml = curve.probable_maximum_loss(years);
    EXPECT_GE(pml, previous);
    previous = pml;
  }
}

TEST_F(EpCurveTest, TvarExceedsPml) {
  const EpCurve curve = uniform_curve();
  EXPECT_GT(curve.tail_value_at_risk(0.99), curve.probable_maximum_loss(100.0) - 1.0);
  EXPECT_GE(curve.tail_value_at_risk(0.99), curve.loss_at_probability(0.01) - 1e-9);
}

TEST_F(EpCurveTest, ExceedanceProbabilityConsistent) {
  const EpCurve curve = uniform_curve();
  EXPECT_DOUBLE_EQ(curve.exceedance_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.exceedance_probability(1000.0), 0.0);
  EXPECT_NEAR(curve.exceedance_probability(900.0), 0.1, 1e-9);
  // Round trip: P(loss > PML(T)) ~= 1/T.
  const double pml = curve.probable_maximum_loss(50.0);
  EXPECT_NEAR(curve.exceedance_probability(pml), 0.02, 0.002);
}

TEST_F(EpCurveTest, TableMatchesPointQueries) {
  const EpCurve curve = uniform_curve();
  const auto periods = metrics::standard_return_periods();
  const auto table = curve.table(periods);
  ASSERT_EQ(table.size(), periods.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_DOUBLE_EQ(table[i].return_period, periods[i]);
    EXPECT_DOUBLE_EQ(table[i].probability, 1.0 / periods[i]);
    EXPECT_DOUBLE_EQ(table[i].loss, curve.probable_maximum_loss(periods[i]));
  }
}

TEST_F(EpCurveTest, Errors) {
  EXPECT_THROW(EpCurve(std::vector<double>{}), std::invalid_argument);
  const EpCurve curve = uniform_curve();
  EXPECT_THROW(curve.probable_maximum_loss(0.5), std::invalid_argument);
  EXPECT_THROW(curve.loss_at_probability(0.0), std::invalid_argument);
  EXPECT_THROW(curve.loss_at_probability(1.5), std::invalid_argument);
  EXPECT_THROW(curve.tail_value_at_risk(0.0), std::invalid_argument);
  EXPECT_THROW(curve.tail_value_at_risk(1.0), std::invalid_argument);
}

TEST(EpCurveDegenerate, AllZeroLosses) {
  const EpCurve curve(std::vector<double>(100, 0.0));
  EXPECT_DOUBLE_EQ(curve.expected_loss(), 0.0);
  EXPECT_DOUBLE_EQ(curve.probable_maximum_loss(250.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.tail_value_at_risk(0.99), 0.0);
  EXPECT_DOUBLE_EQ(curve.exceedance_probability(0.0), 0.0);
}

// --- Occurrence metrics (OEP inputs) ----------------------------------------------

TEST(Occurrence, MaxOccurrenceAndCounts) {
  // Events 0,1,2 with losses 100,200,300; trial 0 = {0,1}, trial 1 = {2,2}.
  const elt::EventLossTable table({{0, 100.0}, {1, 200.0}, {2, 300.0}});
  core::Layer layer;
  layer.id = 1;
  core::LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10);
  layer.elts.push_back(std::move(layer_elt));

  const yet::YearEventTable yet_table({0, 1, 2, 2}, {0.1f, 0.2f, 0.3f, 0.4f}, {0, 2, 4});

  const auto maxima = metrics::max_occurrence_losses(layer, yet_table);
  ASSERT_EQ(maxima.size(), 2u);
  EXPECT_DOUBLE_EQ(maxima[0], 200.0);
  EXPECT_DOUBLE_EQ(maxima[1], 300.0);

  const auto counts = metrics::occurrence_counts_above(layer, yet_table, 150.0);
  EXPECT_EQ(counts[0], 1u);  // only event 1
  EXPECT_EQ(counts[1], 2u);  // both occurrences of event 2
}

TEST(Occurrence, OccurrenceTermsShapeOep) {
  const elt::EventLossTable table({{0, 100.0}, {1, 500.0}});
  core::Layer layer;
  layer.id = 1;
  core::LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10);
  layer.elts.push_back(std::move(layer_elt));
  layer.terms = financial::LayerTerms::cat_xl(150.0, 200.0);

  const yet::YearEventTable yet_table({0, 1}, {0.1f, 0.2f}, {0, 2});
  const auto maxima = metrics::max_occurrence_losses(layer, yet_table);
  // Event 0 nets to 0 (below retention); event 1 nets to min(350, 200).
  EXPECT_DOUBLE_EQ(maxima[0], 200.0);
}

TEST(Occurrence, OepBoundedByAep) {
  // For a layer with no aggregate terms, max occurrence <= trial total.
  const elt::EventLossTable table({{0, 10.0}, {1, 20.0}, {2, 30.0}, {3, 40.0}});
  core::Layer layer;
  layer.id = 1;
  core::LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10);
  layer.elts.push_back(std::move(layer_elt));

  const yet::YearEventTable yet_table({0, 1, 2, 3, 1, 2}, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f},
                                      {0, 4, 6});
  core::Portfolio portfolio;
  portfolio.layers.push_back(layer);
  const auto ylt = core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
  const auto maxima = metrics::max_occurrence_losses(layer, yet_table);
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    EXPECT_LE(maxima[trial], ylt.at(0, trial));
  }
}

TEST(StandardReturnPeriods, SortedAndPositive) {
  const auto periods = metrics::standard_return_periods();
  ASSERT_FALSE(periods.empty());
  for (std::size_t i = 1; i < periods.size(); ++i) {
    EXPECT_GT(periods[i], periods[i - 1]);
  }
  EXPECT_GE(periods.front(), 1.0);
}

}  // namespace
