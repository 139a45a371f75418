// Tests for the financial module: the excess-of-loss primitive, ELT terms,
// layer terms (Table I) and the path-dependent aggregate accumulator.
// Property sweeps use TEST_P.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "financial/terms.hpp"
#include "financial/trial_accumulator.hpp"

namespace {

using namespace are::financial;

// --- excess_of_loss primitive -----------------------------------------------

TEST(ExcessOfLoss, BasicBands) {
  EXPECT_EQ(excess_of_loss(0.0, 10.0, 20.0), 0.0);
  EXPECT_EQ(excess_of_loss(10.0, 10.0, 20.0), 0.0);   // exactly at retention
  EXPECT_EQ(excess_of_loss(15.0, 10.0, 20.0), 5.0);   // inside the band
  EXPECT_EQ(excess_of_loss(30.0, 10.0, 20.0), 20.0);  // exactly exhausts
  EXPECT_EQ(excess_of_loss(100.0, 10.0, 20.0), 20.0); // beyond the band
}

TEST(ExcessOfLoss, ZeroRetention) {
  EXPECT_EQ(excess_of_loss(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(excess_of_loss(15.0, 0.0, 10.0), 10.0);
}

TEST(ExcessOfLoss, UnlimitedLimit) {
  EXPECT_EQ(excess_of_loss(1e12, 10.0, kUnlimited), 1e12 - 10.0);
}

TEST(ExcessOfLoss, ZeroLimitCedesNothing) {
  EXPECT_EQ(excess_of_loss(100.0, 10.0, 0.0), 0.0);
}

// Property sweep: monotonicity and bounds over a parameter grid.
class ExcessOfLossProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ExcessOfLossProperty, MonotoneBoundedLipschitz) {
  const auto [retention, limit] = GetParam();
  double previous = 0.0;
  for (double loss = 0.0; loss <= 250.0; loss += 2.5) {
    const double ceded = excess_of_loss(loss, retention, limit);
    EXPECT_GE(ceded, 0.0);
    EXPECT_LE(ceded, limit);
    EXPECT_LE(ceded, loss);           // never cede more than the loss
    EXPECT_GE(ceded, previous);       // monotone in loss
    EXPECT_LE(ceded - previous, 2.5 + 1e-12);  // 1-Lipschitz
    previous = ceded;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ExcessOfLossProperty,
                         ::testing::Combine(::testing::Values(0.0, 10.0, 50.0, 100.0),
                                            ::testing::Values(0.0, 5.0, 50.0, 1000.0)));

// --- FinancialTerms ----------------------------------------------------------

TEST(FinancialTerms, DefaultPassesThrough) {
  const FinancialTerms terms;
  EXPECT_DOUBLE_EQ(terms.apply(123.45), 123.45);
}

TEST(FinancialTerms, AppliesCurrencyBeforeBand) {
  FinancialTerms terms;
  terms.currency_rate = 2.0;
  terms.occurrence_retention = 10.0;
  terms.occurrence_limit = 100.0;
  // 30 native -> 60 converted -> 50 in excess of 10.
  EXPECT_DOUBLE_EQ(terms.apply(30.0), 50.0);
}

TEST(FinancialTerms, ShareAppliedAfterBand) {
  FinancialTerms terms;
  terms.occurrence_retention = 10.0;
  terms.occurrence_limit = 20.0;
  terms.share = 0.5;
  EXPECT_DOUBLE_EQ(terms.apply(100.0), 10.0);  // min(90,20) * 0.5
}

TEST(FinancialTerms, ValidationRejectsBadValues) {
  FinancialTerms terms;
  terms.occurrence_retention = -1.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  terms.share = 0.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);
  terms.share = 1.5;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  terms.currency_rate = 0.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  EXPECT_NO_THROW(terms.validate());
}

// --- LayerTerms --------------------------------------------------------------

TEST(LayerTerms, CatXlFactoryHasNoAggregateFeatures) {
  const LayerTerms terms = LayerTerms::cat_xl(10.0, 50.0);
  EXPECT_DOUBLE_EQ(terms.apply_occurrence(40.0), 30.0);
  EXPECT_DOUBLE_EQ(terms.apply_aggregate(1e9), 1e9);  // pass-through
}

TEST(LayerTerms, AggregateXlFactoryHasNoOccurrenceFeatures) {
  const LayerTerms terms = LayerTerms::aggregate_xl(100.0, 500.0);
  EXPECT_DOUBLE_EQ(terms.apply_occurrence(40.0), 40.0);  // pass-through
  EXPECT_DOUBLE_EQ(terms.apply_aggregate(700.0), 500.0);
}

TEST(LayerTerms, ValidationRejectsNegatives) {
  LayerTerms terms;
  terms.aggregate_retention = -5.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);
}

// --- TrialAccumulator: the path-dependent aggregate recurrence ---------------

TEST(TrialAccumulator, NoTermsSumsOccurrences) {
  TrialAccumulator acc{LayerTerms{}};
  acc.add_occurrence(10.0);
  acc.add_occurrence(20.0);
  acc.add_occurrence(30.0);
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 60.0);
  EXPECT_DOUBLE_EQ(acc.cumulative_occurrence_loss(), 60.0);
}

TEST(TrialAccumulator, AggregateRetentionAbsorbsEarlyLosses) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(25.0, kUnlimited)};
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // cum 10 < 25
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // cum 20 < 25
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 5.0);  // cum 30: 5 past retention
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 15.0);
}

TEST(TrialAccumulator, AggregateLimitExhausts) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(0.0, 25.0)};
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 5.0);  // hits the limit
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // exhausted
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 25.0);
}

TEST(TrialAccumulator, TrialLossEqualsDirectFormula) {
  // Increment telescoping: total == EoL(sum of occurrences).
  const LayerTerms terms = LayerTerms::aggregate_xl(37.0, 120.0);
  TrialAccumulator acc{terms};
  const double occurrences[] = {5.0, 50.0, 0.0, 33.0, 80.0, 12.0};
  double cumulative = 0.0;
  for (double occurrence : occurrences) {
    acc.add_occurrence(occurrence);
    cumulative += occurrence;
  }
  EXPECT_DOUBLE_EQ(acc.trial_loss(), terms.apply_aggregate(cumulative));
}

TEST(TrialAccumulator, ResetClearsState) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(5.0, 10.0)};
  acc.add_occurrence(100.0);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 0.0);
  EXPECT_DOUBLE_EQ(acc.cumulative_occurrence_loss(), 0.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(7.0), 2.0);
}

// Property: increments are non-negative and never exceed the occurrence.
class AccumulatorProperty : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AccumulatorProperty, IncrementsWellBehaved) {
  const auto [retention, limit] = GetParam();
  TrialAccumulator acc{LayerTerms::aggregate_xl(retention, limit)};
  double total = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double occurrence = static_cast<double>((i * 7919) % 97);
    const double increment = acc.add_occurrence(occurrence);
    EXPECT_GE(increment, 0.0);
    EXPECT_LE(increment, occurrence + 1e-9);
    total += increment;
  }
  EXPECT_NEAR(total, acc.trial_loss(), 1e-9);
  EXPECT_LE(acc.trial_loss(), limit + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, AccumulatorProperty,
                         ::testing::Combine(::testing::Values(0.0, 10.0, 500.0, 5000.0),
                                            ::testing::Values(1.0, 100.0, 2000.0, kUnlimited)));

}  // namespace
