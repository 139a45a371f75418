// Tests for the coverage window (the AnalysisConfig::window knob, driven
// through the unified core::run front door and its "FROM:TO" parser) and
// the severity-stress decorator.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/analysis.hpp"
#include "elt/scaled_lookup.hpp"
#include "elt/synthetic.hpp"
#include "metrics/statistics.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::CoverageWindow;

/// seq through the front door, with an optional coverage window.
core::YearLossTable run_seq(const core::Portfolio& portfolio,
                            const yet::YearEventTable& yet_table,
                            std::optional<CoverageWindow> window = std::nullopt) {
  core::AnalysisConfig config{.engine = core::EngineKind::kSequential};
  config.window = window;
  return core::run({portfolio, yet_table, config});
}

/// Per-trial count of in-window occurrences (a hurricane-season window
/// should capture most hurricane occurrences and few winter-storm ones).
std::vector<std::uint64_t> occurrences_in_window(const yet::YearEventTable& yet_table,
                                                 const CoverageWindow& window) {
  window.validate();
  std::vector<std::uint64_t> counts(yet_table.num_trials(), 0);
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    for (const float time : yet_table.trial_times(trial)) {
      if (window.covers(time)) ++counts[trial];
    }
  }
  return counts;
}

core::Portfolio test_portfolio(std::size_t elts = 3) {
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 100e3;
  layer.terms.aggregate_limit = 100e6;
  for (std::uint64_t e = 0; e < elts; ++e) {
    elt::SyntheticEltConfig config;
    config.catalog_size = 5'000;
    config.entries = 1'000;
    config.elt_id = e;
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                        elt::make_synthetic_elt(config), 5'000);
    layer.elts.push_back(std::move(layer_elt));
  }
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

yet::YearEventTable test_yet(std::uint64_t trials = 300) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = 50.0;
  config.count_model = yet::CountModel::kPoisson;
  return yet::generate_uniform_yet(config, 5'000);
}

// --- CoverageWindow -----------------------------------------------------------

TEST(CoverageWindow, CoversAndValidates) {
  const CoverageWindow window{0.25f, 0.75f};
  EXPECT_FALSE(window.covers(0.2f));
  EXPECT_TRUE(window.covers(0.25f));
  EXPECT_TRUE(window.covers(0.5f));
  EXPECT_FALSE(window.covers(0.75f));  // exclusive upper bound
  EXPECT_FALSE(window.full_year());
  EXPECT_TRUE((CoverageWindow{0.0f, 1.0f}).full_year());

  EXPECT_THROW((CoverageWindow{0.5f, 0.5f}).validate(), std::invalid_argument);
  EXPECT_THROW((CoverageWindow{-0.1f, 0.5f}).validate(), std::invalid_argument);
  EXPECT_THROW((CoverageWindow{0.0f, 1.5f}).validate(), std::invalid_argument);
}

TEST(CoverageWindow, ParsesFromToAndRejectsTrailingText) {
  const CoverageWindow window = CoverageWindow::parse("0.25:0.75");
  EXPECT_EQ(window.from, 0.25f);
  EXPECT_EQ(window.to, 0.75f);
  for (const char* bad : {"0.25:0.75abc", "0.25x:0.75", "0.25", ":0.75", "0.25:", "a:b",
                          "0.75:0.25", "0:1.5"}) {
    EXPECT_THROW(CoverageWindow::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Window, FullYearMatchesNoWindowBitExact) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet();
  const auto reference = run_seq(portfolio, yet_table);
  const auto windowed = run_seq(portfolio, yet_table, CoverageWindow{0.0f, 1.0f});
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    ASSERT_EQ(windowed.at(0, trial), reference.at(0, trial)) << trial;
  }
}

TEST(Window, WindowNeverIncreasesLoss) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet();
  const auto full = run_seq(portfolio, yet_table);
  const auto half = run_seq(portfolio, yet_table, CoverageWindow{0.0f, 0.5f});
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    ASSERT_LE(half.at(0, trial), full.at(0, trial) + 1e-9);
  }
}

TEST(Window, ComplementaryWindowsCoverAllOccurrences) {
  const auto yet_table = test_yet();
  const auto first = occurrences_in_window(yet_table, {0.0f, 0.5f});
  const auto second = occurrences_in_window(yet_table, {0.5f, 1.0f});
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    EXPECT_EQ(first[trial] + second[trial], yet_table.trial_size(trial));
  }
}

TEST(Window, ComplementaryWindowLossesSumWithoutAggregateTerms) {
  // Without aggregate terms (pure per-occurrence), losses are additive
  // across disjoint windows.
  auto portfolio = test_portfolio();
  portfolio.layers[0].terms = financial::LayerTerms::cat_xl(100e3, financial::kUnlimited);
  const auto yet_table = test_yet();

  const auto full = run_seq(portfolio, yet_table);
  const auto first = run_seq(portfolio, yet_table, CoverageWindow{0.0f, 0.5f});
  const auto second = run_seq(portfolio, yet_table, CoverageWindow{0.5f, 1.0f});
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    EXPECT_NEAR(first.at(0, trial) + second.at(0, trial), full.at(0, trial),
                1e-9 * (1.0 + full.at(0, trial)));
  }
}

TEST(Window, NarrowWindowCapturesFewOccurrences) {
  const auto yet_table = test_yet();
  const auto narrow = occurrences_in_window(yet_table, {0.4f, 0.45f});
  std::uint64_t total = 0;
  for (const auto count : narrow) total += count;
  // Uniform timestamps: ~5% of all occurrences.
  const double fraction =
      static_cast<double>(total) / static_cast<double>(yet_table.total_events());
  EXPECT_NEAR(fraction, 0.05, 0.01);
}

TEST(Window, RejectsInvalidWindow) {
  const auto portfolio = test_portfolio();
  EXPECT_THROW(run_seq(portfolio, test_yet(10), CoverageWindow{0.7f, 0.3f}),
               std::invalid_argument);
}

// --- ScaledLookup (severity stress) ----------------------------------------------

TEST(ScaledLookup, ScalesEveryLoss) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 1'000;
  config.entries = 200;
  const auto table = elt::make_synthetic_elt(config);
  const auto base = std::shared_ptr<const elt::ILossLookup>(
      elt::make_lookup(elt::LookupKind::kDirectAccess, table, 1'000));
  const elt::ScaledLookup stressed(base, 1.2);

  for (elt::EventId event = 0; event < 1'000; ++event) {
    EXPECT_DOUBLE_EQ(stressed.lookup(event), 1.2 * base->lookup(event));
  }
  EXPECT_EQ(stressed.entry_count(), base->entry_count());
  EXPECT_EQ(stressed.kind(), base->kind());
}

TEST(ScaledLookup, IsNotEligibleForDirectFastPath) {
  // The decorator must force the virtual path even over a direct table.
  elt::SyntheticEltConfig config;
  config.catalog_size = 1'000;
  config.entries = 100;
  const auto base = std::shared_ptr<const elt::ILossLookup>(
      elt::make_lookup(elt::LookupKind::kDirectAccess, elt::make_synthetic_elt(config), 1'000));
  const elt::ScaledLookup stressed(base, 2.0);
  EXPECT_EQ(stressed.as_direct_access(), nullptr);
  EXPECT_NE(base->as_direct_access(), nullptr);

  core::Layer layer;
  layer.id = 1;
  layer.elts.push_back({std::make_shared<elt::ScaledLookup>(base, 2.0), {}});
  EXPECT_FALSE(layer.all_direct_access());
}

TEST(ScaledLookup, StressAttachesRemoteLayers) {
  // The reason the stress must be input-side: a layer the base book never
  // reaches produces losses once severity is scaled up.
  elt::SyntheticEltConfig config;
  config.catalog_size = 5'000;
  config.entries = 1'000;
  config.loss_scale = 100e3;
  const auto table = elt::make_synthetic_elt(config);
  const auto base = std::shared_ptr<const elt::ILossLookup>(
      elt::make_lookup(elt::LookupKind::kDirectAccess, table, 5'000));

  // Find the base book's maximum event loss and attach just above it.
  double max_loss = 0.0;
  for (elt::EventId event = 0; event < 5'000; ++event) {
    max_loss = std::max(max_loss, base->lookup(event));
  }

  core::Portfolio base_portfolio;
  {
    core::Layer layer;
    layer.id = 1;
    layer.terms = financial::LayerTerms::cat_xl(max_loss * 1.01, financial::kUnlimited);
    layer.elts.push_back({base, {}});
    base_portfolio.layers.push_back(std::move(layer));
  }
  core::Portfolio stressed_portfolio = base_portfolio;
  stressed_portfolio.layers[0].elts[0].lookup = std::make_shared<elt::ScaledLookup>(base, 1.5);

  const auto yet_table = test_yet(500);
  const auto base_ylt = run_seq(base_portfolio, yet_table);
  const auto stressed_ylt = run_seq(stressed_portfolio, yet_table);

  const double base_total = metrics::summarize(base_ylt.layer_losses(0)).mean();
  const double stressed_total = metrics::summarize(stressed_ylt.layer_losses(0)).mean();
  EXPECT_DOUBLE_EQ(base_total, 0.0);
  EXPECT_GT(stressed_total, 0.0);
}

TEST(ScaledLookup, LookupManyForwardsThroughDecorator) {
  // The batch path must go through the base table's override and then
  // scale, matching the scalar decorator lookup bit-for-bit — this is what
  // keeps the fused engine's generic path batched on stressed ELTs.
  elt::SyntheticEltConfig config;
  config.catalog_size = 2'000;
  config.entries = 400;
  const auto table = elt::make_synthetic_elt(config);
  for (const auto kind : {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
                          elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo,
                          elt::LookupKind::kPagedDirect}) {
    const auto base =
        std::shared_ptr<const elt::ILossLookup>(elt::make_lookup(kind, table, 2'000));
    const elt::ScaledLookup stressed(base, 1.3);

    std::vector<elt::EventId> events;
    for (std::uint32_t i = 0; i < 300; ++i) events.push_back((i * 17) % 2'500);
    events.push_back(catalog::kInvalidEvent);

    std::vector<double> batch(events.size() + 1, -1.0);
    stressed.lookup_many(events.data(), events.size(), batch.data());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(batch[i], stressed.lookup(events[i])) << to_string(kind) << " index " << i;
    }
    EXPECT_EQ(batch[events.size()], -1.0) << "lookup_many wrote past count";
  }
}

TEST(ScaledLookup, RejectsBadConstruction) {
  EXPECT_THROW(elt::ScaledLookup(nullptr, 1.0), std::invalid_argument);
  elt::SyntheticEltConfig config;
  config.catalog_size = 10;
  config.entries = 2;
  const auto base = std::shared_ptr<const elt::ILossLookup>(
      elt::make_lookup(elt::LookupKind::kSortedVector, elt::make_synthetic_elt(config), 10));
  EXPECT_THROW(elt::ScaledLookup(base, -0.5), std::invalid_argument);
}

}  // namespace
