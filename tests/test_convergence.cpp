// Tests for the Monte Carlo standard error of the mean.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/convergence.hpp"
#include "metrics/statistics.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

namespace {

using namespace are;
using namespace are::metrics;

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed = 3) {
  rng::Stream stream(seed, 12, 0);
  std::vector<double> sample(n);
  for (auto& x : sample) x = rng::sample_lognormal(stream, 10.0, 1.0);
  return sample;
}

TEST(MeanStandardError, MatchesFormula) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0, 5.0};
  const RunningStats stats = summarize(sample);
  EXPECT_NEAR(mean_standard_error(sample), stats.stddev() / std::sqrt(5.0), 1e-12);
  EXPECT_THROW(mean_standard_error(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(MeanStandardError, ShrinksWithSampleSize) {
  const auto small = lognormal_sample(1'000);
  const auto large = lognormal_sample(16'000);
  EXPECT_GT(mean_standard_error(small), mean_standard_error(large));
}

}  // namespace
