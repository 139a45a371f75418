// Unit and property tests for the rng module: generator correctness,
// stream independence, and distribution moments.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"

namespace {

using namespace are::rng;

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 0 (from the public-domain reference code).
  SplitMix64 gen(0);
  EXPECT_EQ(gen(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(gen(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(gen(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(SplitMix64::mix(1), SplitMix64::mix(1));
  EXPECT_NE(SplitMix64::mix(1), SplitMix64::mix(2));
  // Low-bit inputs must not produce low-bit-only outputs.
  EXPECT_GT(SplitMix64::mix(1) >> 32, 0u);
}

TEST(Philox, BijectionIsDeterministic) {
  const Philox4x32::counter_type ctr{1, 2, 3, 4};
  const Philox4x32::key_type key{5, 6};
  EXPECT_EQ(Philox4x32::bijection(ctr, key), Philox4x32::bijection(ctr, key));
}

TEST(Philox, DifferentCountersDiffer) {
  const Philox4x32::key_type key{5, 6};
  const auto a = Philox4x32::bijection({0, 0, 0, 0}, key);
  const auto b = Philox4x32::bijection({1, 0, 0, 0}, key);
  EXPECT_NE(a, b);
}

TEST(Philox, DifferentKeysDiffer) {
  const Philox4x32::counter_type ctr{7, 8, 9, 10};
  EXPECT_NE(Philox4x32::bijection(ctr, {1, 0}), Philox4x32::bijection(ctr, {2, 0}));
}

TEST(Philox, SeekReproducesBlock) {
  Philox4x32 a(42, 0);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());

  Philox4x32 b(42, 0);
  b.seek(2);  // skip two 128-bit blocks == 8 outputs
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(b(), first[static_cast<std::size_t>(i)]);
  }
}

TEST(Philox, StreamOutputLooksUniform) {
  Philox4x32 gen(123, 0);
  // Mean of 100K uint32 draws should be near 2^31.
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += gen();
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 2147483648.0, 2147483648.0 * 0.01);
}

TEST(Stream, SubstreamsAreIndependentOfGenerationOrder) {
  // The defining property for trial-parallel reproducibility.
  Stream s5(100, 1, 5);
  const auto direct = s5();

  Stream s3(100, 1, 3);
  (void)s3();
  (void)s3();
  Stream s5_again(100, 1, 5);
  EXPECT_EQ(s5_again(), direct);
}

TEST(Stream, DistinctStreamsDiffer) {
  Stream a(1, 1, 0), b(1, 2, 0), c(2, 1, 0);
  EXPECT_NE(a(), b());
  Stream a2(1, 1, 0);
  EXPECT_NE(a2(), c());
}

TEST(Stream, Uniform01InRange) {
  Stream stream(7, 0, 0);
  for (int i = 0; i < 10'000; ++i) {
    const double u = stream.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stream, Uniform01OpenLeftNeverZero) {
  Stream stream(7, 0, 1);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GT(stream.uniform01_open_left(), 0.0);
  }
}

TEST(Stream, UniformBelowRespectsBound) {
  Stream stream(7, 0, 2);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(stream.uniform_below(bound), bound);
    }
  }
}

TEST(Stream, UniformBelowCoversAllResidues) {
  Stream stream(11, 0, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(stream.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

// --- Distribution moment checks -------------------------------------------

class MomentTest : public ::testing::Test {
 protected:
  Stream stream_{20120901, 9, 0};
  static constexpr int kSamples = 200'000;
};

TEST_F(MomentTest, ExponentialMean) {
  const double rate = 2.5;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += sample_exponential(stream_, rate);
  EXPECT_NEAR(sum / kSamples, 1.0 / rate, 0.01);
}

TEST_F(MomentTest, PoissonSmallMeanMatches) {
  const double mean = 3.0;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(sample_poisson(stream_, mean));
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kSamples;
  EXPECT_NEAR(m, mean, 0.05);
  EXPECT_NEAR(sum_sq / kSamples - m * m, mean, 0.1);  // Var == mean
}

TEST_F(MomentTest, PoissonLargeMeanMatches) {
  const double mean = 1000.0;
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kBig = 50'000;
  for (int i = 0; i < kBig; ++i) {
    const double x = static_cast<double>(sample_poisson(stream_, mean));
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kBig;
  EXPECT_NEAR(m, mean, 1.0);
  EXPECT_NEAR(sum_sq / kBig - m * m, mean, 30.0);
}

TEST_F(MomentTest, PoissonZeroMeanIsZero) {
  EXPECT_EQ(sample_poisson(stream_, 0.0), 0u);
}

TEST_F(MomentTest, NormalMoments) {
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sample_normal(stream_, 10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kSamples;
  EXPECT_NEAR(m, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - m * m), 3.0, 0.05);
}

TEST_F(MomentTest, GammaMoments) {
  const double shape = 2.0, scale = 3.0;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sample_gamma(stream_, shape, scale);
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kSamples;
  EXPECT_NEAR(m, shape * scale, 0.1);
  EXPECT_NEAR(sum_sq / kSamples - m * m, shape * scale * scale, 0.5);
}

TEST_F(MomentTest, GammaShapeBelowOne) {
  const double shape = 0.5, scale = 1.0;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sample_gamma(stream_, shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, shape * scale, 0.02);
}

TEST_F(MomentTest, BetaMeanAndRange) {
  const double a = 2.0, b = 5.0;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sample_beta(stream_, a, b);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, a / (a + b), 0.01);
}

TEST_F(MomentTest, LognormalMedian) {
  const double mu = 1.5, sigma = 0.8;
  std::vector<double> sample(kSamples);
  for (auto& x : sample) x = sample_lognormal(stream_, mu, sigma);
  std::nth_element(sample.begin(), sample.begin() + kSamples / 2, sample.end());
  EXPECT_NEAR(sample[kSamples / 2], std::exp(mu), std::exp(mu) * 0.05);
}

TEST_F(MomentTest, ParetoLomaxMean) {
  // Lomax mean = scale / (alpha - 1) for alpha > 1.
  const double alpha = 3.0, scale = 2.0;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += sample_pareto_lomax(stream_, alpha, scale);
  EXPECT_NEAR(sum / kSamples, scale / (alpha - 1.0), 0.05);
}

TEST_F(MomentTest, NegativeBinomialMeanVariance) {
  // NB(r, p): mean = r(1-p)/p, var = mean / p.
  const double r = 5.0, p = 0.4;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(sample_negative_binomial(stream_, r, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = r * (1.0 - p) / p;
  const double m = sum / kSamples;
  EXPECT_NEAR(m, mean, 0.1);
  EXPECT_NEAR(sum_sq / kSamples - m * m, mean / p, 0.7);
}

TEST_F(MomentTest, TruncatedLognormalStaysInWindow) {
  for (int i = 0; i < 1000; ++i) {
    const double x = sample_lognormal_truncated(stream_, 0.0, 1.0, 0.5, 2.0);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 2.0);
  }
}

// --- Invalid-argument contracts --------------------------------------------

TEST(DistributionErrors, RejectBadParameters) {
  Stream stream(1, 0, 0);
  EXPECT_THROW(sample_exponential(stream, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_exponential(stream, -1.0), std::invalid_argument);
  EXPECT_THROW(sample_poisson(stream, -1.0), std::invalid_argument);
  EXPECT_THROW(sample_gamma(stream, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_gamma(stream, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_pareto_lomax(stream, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_negative_binomial(stream, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(sample_negative_binomial(stream, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_negative_binomial(stream, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_lognormal_truncated(stream, 0.0, 1.0, 2.0, 1.0), std::invalid_argument);
}

// --- Alias table ------------------------------------------------------------

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

TEST(AliasTable, SingleEntryAlwaysSampled) {
  const AliasTable table(std::vector<double>{3.0});
  Stream stream(5, 0, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(stream), 0u);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const AliasTable table(std::vector<double>{1.0, 0.0, 1.0});
  Stream stream(5, 0, 1);
  for (int i = 0; i < 10'000; ++i) EXPECT_NE(table.sample(stream), 1u);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const AliasTable table(weights);
  Stream stream(5, 0, 2);
  std::array<int, 4> counts{};
  constexpr int kDraws = 400'000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(stream)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, expected, 0.005) << "index " << i;
    EXPECT_NEAR(table.probability_of(i), expected, 1e-12);
  }
}

TEST(AliasTable, LargeSkewedTable) {
  std::vector<double> weights(10'000, 1e-6);
  weights[1234] = 10.0;  // one dominant event
  const AliasTable table(weights);
  Stream stream(5, 0, 3);
  int hits = 0;
  constexpr int kDraws = 10'000;
  for (int i = 0; i < kDraws; ++i) {
    if (table.sample(stream) == 1234u) ++hits;
  }
  EXPECT_GT(hits, kDraws / 2);
}

}  // namespace
