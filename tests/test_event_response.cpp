// Tests for post-event response analytics.
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "elt/lookup.hpp"
#include "metrics/event_response.hpp"
#include "yet/year_event_table.hpp"

namespace {

using namespace are;

core::Portfolio tiny_portfolio() {
  // Events 0..3 with losses 100, 200, 300, 400; share 0.5 on the second ELT
  // copy so combined per-event losses are 1.5x.
  const elt::EventLossTable table({{0, 100.0}, {1, 200.0}, {2, 300.0}, {3, 400.0}});
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.elts.push_back({elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10), {}});
  core::LayerElt half;
  half.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, 10);
  half.terms.share = 0.5;
  layer.elts.push_back(std::move(half));
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

yet::YearEventTable tiny_yet() {
  // Trial 0: {0, 1}; trial 1: {2}; trial 2: {1, 1}; trial 3: {}.
  return yet::YearEventTable({0, 1, 2, 1, 1}, {0.1f, 0.2f, 0.3f, 0.1f, 0.5f}, {0, 2, 3, 5, 5});
}

TEST(EventResponse, EventLossForLayerCombinesEltsAndTerms) {
  auto portfolio = tiny_portfolio();
  EXPECT_DOUBLE_EQ(metrics::event_loss_for_layer(portfolio.layers[0], 1), 300.0);  // 1.5 * 200
  EXPECT_DOUBLE_EQ(metrics::event_loss_for_layer(portfolio.layers[0], 9), 0.0);

  portfolio.layers[0].terms = financial::LayerTerms::cat_xl(250.0, 100.0);
  EXPECT_DOUBLE_EQ(metrics::event_loss_for_layer(portfolio.layers[0], 1), 50.0);
  EXPECT_DOUBLE_EQ(metrics::event_loss_for_layer(portfolio.layers[0], 3), 100.0);  // capped
}

TEST(EventResponse, EventLossesAcrossPortfolio) {
  auto portfolio = tiny_portfolio();
  portfolio.layers.push_back(portfolio.layers[0]);
  portfolio.layers[1].id = 2;
  portfolio.layers[1].terms = financial::LayerTerms::cat_xl(400.0, financial::kUnlimited);
  const auto losses = metrics::event_losses(portfolio, 2);  // combined 450
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_DOUBLE_EQ(losses[0], 450.0);
  EXPECT_DOUBLE_EQ(losses[1], 50.0);
}

TEST(EventResponse, TopContributingEventsRankedByAnnualLoss) {
  const auto portfolio = tiny_portfolio();
  const auto yet_table = tiny_yet();
  // Occurrences: event 0 x1, event 1 x3, event 2 x1 over 4 trials.
  // Annual losses: e0: 150/4; e1: 3*300/4 = 225; e2: 450/4 = 112.5.
  const auto top = metrics::top_contributing_events(portfolio.layers[0], yet_table, 10, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].event, 1u);
  EXPECT_DOUBLE_EQ(top[0].expected_annual_loss, 225.0);
  EXPECT_EQ(top[0].occurrences, 3u);
  EXPECT_EQ(top[1].event, 2u);
  EXPECT_DOUBLE_EQ(top[1].occurrence_loss, 450.0);
}

TEST(EventResponse, TopNLargerThanUniverseReturnsAll) {
  const auto portfolio = tiny_portfolio();
  const auto top = metrics::top_contributing_events(portfolio.layers[0], tiny_yet(), 10, 100);
  EXPECT_EQ(top.size(), 3u);  // events 0, 1, 2 occur; 3 never does
  EXPECT_TRUE(metrics::top_contributing_events(portfolio.layers[0], tiny_yet(), 10, 0).empty());
}

TEST(EventResponse, TrialsContaining) {
  const auto trials = metrics::trials_containing(tiny_yet(), 1);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[0], 0u);
  EXPECT_EQ(trials[1], 2u);
  EXPECT_TRUE(metrics::trials_containing(tiny_yet(), 3).empty());
}

TEST(EventResponse, ConditionalExpectedLoss) {
  const auto portfolio = tiny_portfolio();
  const auto yet_table = tiny_yet();
  const auto ylt = core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
  // Trials with event 1: trial 0 (loss 150+300=450) and trial 2 (600).
  const double conditional = metrics::conditional_expected_loss(ylt, 0, yet_table, 1);
  EXPECT_DOUBLE_EQ(conditional, 525.0);
  // Unconditional mean is lower: the event's presence marks bad years.
  double unconditional = 0.0;
  for (const double loss : ylt.layer_losses(0)) unconditional += loss;
  unconditional /= 4.0;
  EXPECT_GT(conditional, unconditional);

  EXPECT_THROW(metrics::conditional_expected_loss(ylt, 0, yet_table, 3), std::invalid_argument);
}

}  // namespace
