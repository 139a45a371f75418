// Tests for Euler / co-TVaR capital allocation.
#include <gtest/gtest.h>

#include <algorithm>

#include "metrics/allocation.hpp"
#include "metrics/statistics.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

namespace {

using namespace are;
using metrics::allocate_tvar;
using metrics::diversification_benefit;

core::YearLossTable random_ylt(std::size_t layers, std::size_t trials, std::uint64_t seed) {
  std::vector<std::uint32_t> ids(layers);
  for (std::size_t l = 0; l < layers; ++l) ids[l] = static_cast<std::uint32_t>(l + 1);
  core::YearLossTable ylt(std::move(ids), trials);
  rng::Stream stream(seed, 13, 0);
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t t = 0; t < trials; ++t) {
      ylt.at(l, t) = rng::sample_lognormal(stream, 10.0 + static_cast<double>(l), 0.8);
    }
  }
  return ylt;
}

TEST(Allocation, ContributionsSumToPortfolioTvar) {
  const auto ylt = random_ylt(4, 5'000, 1);
  const auto allocation = allocate_tvar(ylt, 0.99);
  double sum = 0.0;
  for (double contribution : allocation.layer_contributions) sum += contribution;
  EXPECT_NEAR(sum, allocation.portfolio_tvar, 1e-6 * allocation.portfolio_tvar);
}

TEST(Allocation, SharesSumToOne) {
  const auto ylt = random_ylt(3, 2'000, 2);
  const auto allocation = allocate_tvar(ylt, 0.95);
  double total_share = 0.0;
  for (double share : allocation.layer_shares) total_share += share;
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(Allocation, PortfolioTvarMatchesDirectComputation) {
  const auto ylt = random_ylt(2, 3'000, 3);
  const auto allocation = allocate_tvar(ylt, 0.99);
  std::vector<double> portfolio = ylt.portfolio_losses();
  std::sort(portfolio.begin(), portfolio.end());
  EXPECT_NEAR(allocation.portfolio_tvar, metrics::tail_value_at_risk(portfolio, 0.99),
              1e-6 * allocation.portfolio_tvar);
}

TEST(Allocation, SingleLayerGetsEverything) {
  const auto ylt = random_ylt(1, 1'000, 4);
  const auto allocation = allocate_tvar(ylt, 0.9);
  ASSERT_EQ(allocation.layer_contributions.size(), 1u);
  EXPECT_NEAR(allocation.layer_shares[0], 1.0, 1e-12);
}

TEST(Allocation, IdenticalLayersSplitEvenly) {
  core::YearLossTable ylt({1, 2}, 100);
  for (std::size_t t = 0; t < 100; ++t) {
    const double loss = static_cast<double>(t);
    ylt.at(0, t) = loss;
    ylt.at(1, t) = loss;
  }
  const auto allocation = allocate_tvar(ylt, 0.9);
  EXPECT_NEAR(allocation.layer_shares[0], 0.5, 1e-12);
  EXPECT_NEAR(allocation.layer_shares[1], 0.5, 1e-12);
}

TEST(Allocation, TailDriverGetsLargerShare) {
  // Layer 1 is flat; layer 2 only loses in the tail trials.
  core::YearLossTable ylt({1, 2}, 1'000);
  for (std::size_t t = 0; t < 1'000; ++t) {
    ylt.at(0, t) = 100.0;
    ylt.at(1, t) = t >= 990 ? 10'000.0 : 0.0;
  }
  const auto allocation = allocate_tvar(ylt, 0.99);
  EXPECT_GT(allocation.layer_shares[1], 0.9);
}

TEST(Allocation, HedgeGetsNegativeShare) {
  // Layer 2 pays back (negative loss) exactly in layer 1's bad years: a
  // hedge, whose negative entries get a negative share.
  core::YearLossTable ylt({1, 2}, 1'000);
  for (std::size_t t = 0; t < 1'000; ++t) {
    ylt.at(0, t) = static_cast<double>(t);
    ylt.at(1, t) = t >= 900 ? -100.0 : 0.0;
  }
  const auto allocation = allocate_tvar(ylt, 0.95);
  EXPECT_LT(allocation.layer_contributions[1], 0.0);
}

TEST(Allocation, RejectsBadLevel) {
  const auto ylt = random_ylt(2, 100, 5);
  EXPECT_THROW(allocate_tvar(ylt, 0.0), std::invalid_argument);
  EXPECT_THROW(allocate_tvar(ylt, 1.0), std::invalid_argument);
  EXPECT_THROW(allocate_tvar(core::YearLossTable{}, 0.5), std::invalid_argument);
}

TEST(Diversification, IndependentLayersBenefit) {
  const auto ylt = random_ylt(5, 10'000, 6);
  const double benefit = diversification_benefit(ylt, 0.99);
  EXPECT_GT(benefit, 0.05);
  EXPECT_LT(benefit, 0.9);
}

TEST(Diversification, ComonotonicLayersNoBenefit) {
  core::YearLossTable ylt({1, 2}, 500);
  for (std::size_t t = 0; t < 500; ++t) {
    ylt.at(0, t) = static_cast<double>(t);
    ylt.at(1, t) = 2.0 * static_cast<double>(t);  // same ordering
  }
  EXPECT_NEAR(diversification_benefit(ylt, 0.95), 0.0, 1e-9);
}

TEST(Diversification, AllZeroYltIsZero) {
  const core::YearLossTable ylt({1, 2}, 100);
  EXPECT_DOUBLE_EQ(diversification_benefit(ylt, 0.9), 0.0);
}

}  // namespace
