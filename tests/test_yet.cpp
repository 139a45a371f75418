// Tests for the Year Event Table: CSR layout invariants (the trial-order
// check across parallel trial ranges included), generator
// determinism, count models, rate-proportional sampling and seasonality.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "catalog/event_catalog.hpp"
#include "yet/generator.hpp"
#include "yet/year_event_table.hpp"

namespace {

using namespace are;
using yet::CountModel;
using yet::YearEventTable;
using yet::YetConfig;

TEST(YearEventTable, EmptyTableHasNoTrials) {
  const YearEventTable table;
  EXPECT_EQ(table.num_trials(), 0u);
  EXPECT_EQ(table.total_events(), 0u);
}

TEST(YearEventTable, TrialSlicing) {
  const YearEventTable table({10, 20, 30}, {0.1f, 0.2f, 0.9f}, {0, 2, 2, 3});
  ASSERT_EQ(table.num_trials(), 3u);
  EXPECT_EQ(table.trial_size(0), 2u);
  EXPECT_EQ(table.trial_size(1), 0u);
  EXPECT_EQ(table.trial_size(2), 1u);
  EXPECT_EQ(table.trial_events(0)[1], 20u);
  EXPECT_FLOAT_EQ(table.trial_times(2)[0], 0.9f);
  EXPECT_DOUBLE_EQ(table.mean_events_per_trial(), 1.0);
}

TEST(YearEventTable, ValidatesStructure) {
  // Offsets must start at 0.
  EXPECT_THROW(YearEventTable({1}, {0.5f}, {1, 1}), std::invalid_argument);
  // Offsets must end at event count.
  EXPECT_THROW(YearEventTable({1, 2}, {0.1f, 0.2f}, {0, 1}), std::invalid_argument);
  // Offsets must be non-decreasing.
  EXPECT_THROW(YearEventTable({1, 2}, {0.1f, 0.2f}, {0, 2, 1, 2}), std::invalid_argument);
  // Event/time vectors must align.
  EXPECT_THROW(YearEventTable({1, 2}, {0.1f}, {0, 2}), std::invalid_argument);
  // Trials must be time-ordered.
  EXPECT_THROW(YearEventTable({1, 2}, {0.9f, 0.1f}, {0, 2}), std::invalid_argument);
  // Empty offsets rejected.
  EXPECT_THROW(YearEventTable({}, {}, {}), std::invalid_argument);
}

// Large enough that the trial-order check splits over several trial ranges
// on a multi-core host: a misordered trial in any range, the first or the
// last, fails with the serial check's error.
TEST(YearEventTable, TimeOrderCheckedInEveryTrialRange) {
  constexpr std::size_t kTrials = 1024;
  constexpr std::size_t kPerTrial = 1024;
  std::vector<std::uint64_t> offsets(kTrials + 1);
  for (std::size_t t = 0; t <= kTrials; ++t) offsets[t] = t * kPerTrial;
  std::vector<float> times(kTrials * kPerTrial);
  for (std::size_t k = 0; k < times.size(); ++k) {
    times[k] = static_cast<float>(k % kPerTrial) / kPerTrial;
  }
  const std::vector<yet::EventId> events(times.size(), 1);
  EXPECT_NO_THROW(YearEventTable(events, times, offsets));

  for (const std::size_t trial : {std::size_t{0}, kTrials / 2, kTrials - 1}) {
    std::vector<float> misordered = times;
    std::swap(misordered[trial * kPerTrial + 3], misordered[trial * kPerTrial + 4]);
    try {
      YearEventTable(events, misordered, offsets);
      ADD_FAILURE() << "misordered trial " << trial << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "YET trial occurrences must be time-ordered");
    }
  }
}

TEST(YearEventTable, MemoryAccounting) {
  const YearEventTable table({1, 2, 3}, {0.1f, 0.2f, 0.3f}, {0, 3});
  EXPECT_EQ(table.memory_bytes(),
            3 * sizeof(yet::EventId) + 3 * sizeof(float) + 2 * sizeof(std::uint64_t));
}

// --- Uniform generator ----------------------------------------------------------

TEST(UniformYet, FixedCountModelGivesExactSizes) {
  YetConfig config;
  config.num_trials = 50;
  config.events_per_trial = 37.0;
  config.count_model = CountModel::kFixed;
  const auto table = yet::generate_uniform_yet(config, 1'000);
  ASSERT_EQ(table.num_trials(), 50u);
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    EXPECT_EQ(table.trial_size(trial), 37u);
  }
}

TEST(UniformYet, EventsWithinUniverse) {
  YetConfig config;
  config.num_trials = 20;
  config.events_per_trial = 100.0;
  const auto table = yet::generate_uniform_yet(config, 500);
  for (const auto event : table.events()) {
    EXPECT_LT(event, 500u);
  }
}

TEST(UniformYet, TimesSortedWithinTrials) {
  YetConfig config;
  config.num_trials = 10;
  config.events_per_trial = 200.0;
  const auto table = yet::generate_uniform_yet(config, 500);
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    const auto times = table.trial_times(trial);
    for (std::size_t k = 1; k < times.size(); ++k) {
      EXPECT_LE(times[k - 1], times[k]);
    }
  }
}

TEST(UniformYet, Deterministic) {
  YetConfig config;
  config.num_trials = 25;
  config.events_per_trial = 50.0;
  const auto a = yet::generate_uniform_yet(config, 1'000);
  const auto b = yet::generate_uniform_yet(config, 1'000);
  ASSERT_EQ(a.total_events(), b.total_events());
  for (std::size_t i = 0; i < a.total_events(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);
    EXPECT_EQ(a.times()[i], b.times()[i]);
  }
}

TEST(UniformYet, TrialsIndependentOfTotalCount) {
  // Per-trial substreams: the first 10 trials of a 100-trial YET equal a
  // 10-trial YET. This is what lets a grid of workers generate slices.
  YetConfig small;
  small.num_trials = 10;
  small.events_per_trial = 30.0;
  YetConfig large = small;
  large.num_trials = 100;

  const auto a = yet::generate_uniform_yet(small, 1'000);
  const auto b = yet::generate_uniform_yet(large, 1'000);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    const auto ea = a.trial_events(trial);
    const auto eb = b.trial_events(trial);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t k = 0; k < ea.size(); ++k) EXPECT_EQ(ea[k], eb[k]);
  }
}

TEST(UniformYet, PoissonCountsHaveRightMoments) {
  YetConfig config;
  config.num_trials = 5'000;
  config.events_per_trial = 40.0;
  config.count_model = CountModel::kPoisson;
  const auto table = yet::generate_uniform_yet(config, 1'000);

  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    const double n = static_cast<double>(table.trial_size(trial));
    sum += n;
    sum_sq += n * n;
  }
  const double mean = sum / 5'000.0;
  const double variance = sum_sq / 5'000.0 - mean * mean;
  EXPECT_NEAR(mean, 40.0, 0.5);
  EXPECT_NEAR(variance, 40.0, 3.0);
}

TEST(UniformYet, NegativeBinomialIsOverdispersed) {
  YetConfig config;
  config.num_trials = 5'000;
  config.events_per_trial = 40.0;
  config.count_model = CountModel::kNegativeBinomial;
  config.dispersion = 10.0;
  const auto table = yet::generate_uniform_yet(config, 1'000);

  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    const double n = static_cast<double>(table.trial_size(trial));
    sum += n;
    sum_sq += n * n;
  }
  const double mean = sum / 5'000.0;
  const double variance = sum_sq / 5'000.0 - mean * mean;
  EXPECT_NEAR(mean, 40.0, 1.5);
  // Var = mean * (1 + mean/dispersion) = 40 * 5 = 200 >> 40.
  EXPECT_GT(variance, 120.0);
}

TEST(UniformYet, RejectsBadConfig) {
  YetConfig config;
  config.num_trials = 0;
  EXPECT_THROW(yet::generate_uniform_yet(config, 100), std::invalid_argument);
  config.num_trials = 1;
  EXPECT_THROW(yet::generate_uniform_yet(config, 0), std::invalid_argument);
  config.events_per_trial = -1.0;
  EXPECT_THROW(yet::generate_uniform_yet(config, 100), std::invalid_argument);
}

// --- Catalog-driven generator -----------------------------------------------------

class CatalogYet : public ::testing::Test {
 protected:
  static catalog::EventCatalog make_catalog() {
    catalog::CatalogConfig config;
    config.num_events = 2'000;
    config.expected_events_per_year = 100.0;
    config.seed = 77;
    return catalog::build_catalog(config);
  }
};

TEST_F(CatalogYet, EmptyCatalogRejected) {
  YetConfig config;
  EXPECT_THROW(yet::generate_yet(config, catalog::EventCatalog{}), std::invalid_argument);
}

TEST_F(CatalogYet, SamplingIsRateProportional) {
  const auto cat = make_catalog();
  YetConfig config;
  config.num_trials = 2'000;
  config.events_per_trial = 100.0;
  config.count_model = CountModel::kFixed;
  const auto table = yet::generate_yet(config, cat);

  // Count hits of the highest-rate event and compare to expectation.
  const auto rates = cat.rates();
  const std::size_t hot =
      static_cast<std::size_t>(std::max_element(rates.begin(), rates.end()) - rates.begin());
  std::size_t hits = 0;
  for (const auto event : table.events()) {
    if (event == hot) ++hits;
  }
  const double expected = static_cast<double>(table.total_events()) * rates[hot] /
                          cat.total_annual_rate();
  EXPECT_GT(expected, 50.0);  // sanity: hot event is actually hot
  EXPECT_NEAR(static_cast<double>(hits), expected, 5.0 * std::sqrt(expected));
}

TEST_F(CatalogYet, HurricaneTimestampsAreSeasonal) {
  const auto cat = make_catalog();
  YetConfig config;
  config.num_trials = 1'000;
  config.events_per_trial = 100.0;
  const auto table = yet::generate_yet(config, cat);

  // Mean timestamp of hurricane occurrences should be noticeably past
  // mid-year (Beta(7, 3.5) has mean 2/3); earthquakes uniform (mean 1/2).
  double hurricane_sum = 0.0, quake_sum = 0.0;
  std::size_t hurricane_count = 0, quake_count = 0;
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    const auto events = table.trial_events(trial);
    const auto times = table.trial_times(trial);
    for (std::size_t k = 0; k < events.size(); ++k) {
      const auto peril = cat[events[k]].peril;
      if (peril == catalog::Peril::kHurricane) {
        hurricane_sum += times[k];
        ++hurricane_count;
      } else if (peril == catalog::Peril::kEarthquake) {
        quake_sum += times[k];
        ++quake_count;
      }
    }
  }
  ASSERT_GT(hurricane_count, 100u);
  ASSERT_GT(quake_count, 100u);
  EXPECT_NEAR(hurricane_sum / static_cast<double>(hurricane_count), 2.0 / 3.0, 0.03);
  EXPECT_NEAR(quake_sum / static_cast<double>(quake_count), 0.5, 0.03);
}

TEST_F(CatalogYet, PaperScaleShapeSmoke) {
  // Miniature of the paper's YET shape: trials of ~800-1500 events.
  const auto cat = make_catalog();
  YetConfig config;
  config.num_trials = 20;
  config.events_per_trial = 1'000.0;
  config.count_model = CountModel::kPoisson;
  const auto table = yet::generate_yet(config, cat);
  for (std::size_t trial = 0; trial < table.num_trials(); ++trial) {
    EXPECT_GT(table.trial_size(trial), 800u);
    EXPECT_LT(table.trial_size(trial), 1'200u);
  }
}

}  // namespace
