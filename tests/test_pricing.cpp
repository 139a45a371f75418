// Tests for the pricing module: quote composition, loadings and
// rate-on-line arithmetic, the assumptions' validation, and the TVaR by
// selection against the full sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/statistics.hpp"
#include "pricing/pricing.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using financial::LayerTerms;
using pricing::price_layer;
using pricing::PricingAssumptions;
using pricing::Quote;

std::vector<double> synthetic_losses() {
  std::vector<double> losses(1000);
  for (std::size_t i = 0; i < losses.size(); ++i) {
    losses[i] = static_cast<double>(i % 100) * 1000.0;  // mean 49500
  }
  return losses;
}

TEST(Pricing, PurePremiumIsMeanLoss) {
  const auto losses = synthetic_losses();
  PricingAssumptions assumptions;
  assumptions.stddev_loading = 0.0;
  assumptions.tvar_loading = 0.0;
  assumptions.expense_ratio = 0.0;
  const Quote quote = price_layer(losses, LayerTerms{}, assumptions);
  EXPECT_DOUBLE_EQ(quote.technical_premium, quote.expected_loss);
  EXPECT_NEAR(quote.expected_loss, 49500.0, 1.0);
}

TEST(Pricing, LoadingsIncreasePremium) {
  const auto losses = synthetic_losses();
  PricingAssumptions flat;
  flat.stddev_loading = 0.0;
  flat.tvar_loading = 0.0;
  flat.expense_ratio = 0.0;
  PricingAssumptions loaded;  // defaults carry loadings
  const Quote base = price_layer(losses, LayerTerms{}, flat);
  const Quote risk = price_layer(losses, LayerTerms{}, loaded);
  EXPECT_GT(risk.technical_premium, base.technical_premium);
}

TEST(Pricing, ExpenseRatioGrossesUp) {
  const auto losses = synthetic_losses();
  PricingAssumptions assumptions;
  assumptions.stddev_loading = 0.0;
  assumptions.tvar_loading = 0.0;
  assumptions.expense_ratio = 0.2;
  const Quote quote = price_layer(losses, LayerTerms{}, assumptions);
  EXPECT_NEAR(quote.technical_premium, quote.expected_loss / 0.8, 1e-6);
}

TEST(Pricing, RateOnLineUsesOccurrenceLimit) {
  const auto losses = synthetic_losses();
  const LayerTerms terms = LayerTerms::cat_xl(10'000.0, 200'000.0);
  const Quote quote = price_layer(losses, terms);
  EXPECT_NEAR(quote.rate_on_line, quote.technical_premium / 200'000.0, 1e-12);
}

TEST(Pricing, UnlimitedLayerHasNoRateOnLine) {
  const Quote quote = price_layer(synthetic_losses(), LayerTerms{});
  EXPECT_DOUBLE_EQ(quote.rate_on_line, 0.0);
}

TEST(Pricing, TvarFeedsPremium) {
  const auto losses = synthetic_losses();
  PricingAssumptions assumptions;
  assumptions.stddev_loading = 0.0;
  assumptions.tvar_loading = 1.0;  // premium = EL + TVaR
  assumptions.expense_ratio = 0.0;
  const Quote quote = price_layer(losses, LayerTerms{}, assumptions);
  EXPECT_NEAR(quote.technical_premium, quote.expected_loss + quote.tvar, 1e-9);
  EXPECT_GT(quote.tvar, quote.expected_loss);  // tail above the mean
}

TEST(Pricing, ZeroLossBookPricesAtZero) {
  const std::vector<double> losses(100, 0.0);
  const Quote quote = price_layer(losses, LayerTerms{});
  EXPECT_DOUBLE_EQ(quote.expected_loss, 0.0);
  EXPECT_DOUBLE_EQ(quote.stddev, 0.0);
  EXPECT_DOUBLE_EQ(quote.technical_premium, 0.0);
}

TEST(Pricing, Errors) {
  EXPECT_THROW(price_layer(std::vector<double>{}, LayerTerms{}), std::invalid_argument);
  PricingAssumptions assumptions;
  assumptions.expense_ratio = 1.0;
  EXPECT_THROW(price_layer(synthetic_losses(), LayerTerms{}, assumptions), std::invalid_argument);
  assumptions.expense_ratio = -0.1;
  EXPECT_THROW(price_layer(synthetic_losses(), LayerTerms{}, assumptions), std::invalid_argument);
}

TEST(Pricing, DescribeMentionsKeyFigures) {
  const Quote quote = price_layer(synthetic_losses(), LayerTerms::cat_xl(0.0, 1e6));
  const std::string text = pricing::describe(quote);
  EXPECT_NE(text.find("EL="), std::string::npos);
  EXPECT_NE(text.find("premium="), std::string::npos);
  EXPECT_NE(text.find("ROL="), std::string::npos);
}

TEST(Pricing, MonotoneInLossScale) {
  // Scaling all losses up scales the premium up.
  auto losses = synthetic_losses();
  const Quote base = price_layer(losses, LayerTerms{});
  for (auto& loss : losses) loss *= 2.0;
  const Quote doubled = price_layer(losses, LayerTerms{});
  EXPECT_NEAR(doubled.technical_premium, 2.0 * base.technical_premium, 1e-6);
}

// --- Pricing by selection equals the full sort -----------------------------------

/// price_layer as it was before selection: the mean and deviation from
/// metrics::summarize, the TVaR from a fully sorted EpCurve.
Quote full_sort_quote(std::span<const double> losses, const LayerTerms& terms,
                      const PricingAssumptions& assumptions) {
  const metrics::RunningStats stats = metrics::summarize(losses);
  Quote quote;
  quote.expected_loss = stats.mean();
  quote.stddev = stats.stddev();
  quote.tvar = metrics::EpCurve(losses).tail_value_at_risk(assumptions.tvar_level);
  const double risk_loaded = quote.expected_loss + assumptions.stddev_loading * quote.stddev +
                             assumptions.tvar_loading * quote.tvar;
  quote.technical_premium = risk_loaded / (1.0 - assumptions.expense_ratio);
  if (terms.occurrence_limit != financial::kUnlimited && terms.occurrence_limit > 0.0) {
    quote.rate_on_line = quote.technical_premium / terms.occurrence_limit;
  }
  return quote;
}

/// Every field of price_layer's quote has the full-sort path's bits, at
/// each level; levels outside (0, 1) throw on both paths. Returns the
/// number of quotes compared.
std::size_t expect_selection_matches_sort(const std::vector<double>& losses,
                                          const LayerTerms& terms = {}) {
  const double n = static_cast<double>(losses.size());
  std::size_t compared = 0;
  for (const double level : {0.5, 0.9, 0.99, 0.999, 1.0 - 1.0 / n}) {
    PricingAssumptions assumptions;
    assumptions.tvar_level = level;
    SCOPED_TRACE("n " + std::to_string(losses.size()) + " level " + std::to_string(level));
    if (!(level > 0.0 && level < 1.0)) {
      EXPECT_THROW(price_layer(losses, terms, assumptions), std::invalid_argument);
      EXPECT_THROW(full_sort_quote(losses, terms, assumptions), std::invalid_argument);
      continue;
    }
    const Quote selected = price_layer(losses, terms, assumptions);
    const Quote sorted = full_sort_quote(losses, terms, assumptions);
    const auto same_bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
    EXPECT_TRUE(same_bits(selected.expected_loss, sorted.expected_loss));
    EXPECT_TRUE(same_bits(selected.stddev, sorted.stddev));
    EXPECT_TRUE(same_bits(selected.tvar, sorted.tvar)) << selected.tvar << " vs " << sorted.tvar;
    EXPECT_TRUE(same_bits(selected.technical_premium, sorted.technical_premium));
    EXPECT_TRUE(same_bits(selected.rate_on_line, sorted.rate_on_line));
    ++compared;
  }
  return compared;
}

std::vector<double> shuffled(std::vector<double> sample, unsigned seed) {
  std::shuffle(sample.begin(), sample.end(), std::mt19937(seed));
  return sample;
}

TEST(Pricing, SelectionMatchesFullSortOnEdgeSamples) {
  std::size_t compared = 0;
  compared += expect_selection_matches_sort({123'456.0});
  compared += expect_selection_matches_sort({5e5, 3e5});
  compared += expect_selection_matches_sort(std::vector<double>(100, 0.0));

  // Over half zeros: VaR is 0 at the lower levels, so every trial is in
  // the tail, the tied zeros below the VaR index included.
  std::vector<double> mostly_zero(1000, 0.0);
  for (std::size_t i = 600; i < mostly_zero.size(); ++i) mostly_zero[i] = 1e3 * (i % 37 + 1);
  compared += expect_selection_matches_sort(shuffled(mostly_zero, 1));

  // Ties straddling every level's VaR index (n = 1000: indices 499, 899,
  // 989, 998), and ties in runs of 50 everywhere else.
  std::vector<double> straddling(1000);
  for (std::size_t i = 0; i < straddling.size(); ++i) straddling[i] = 1e3 * static_cast<double>(i);
  for (const std::size_t index : {499u, 899u, 989u, 998u}) {
    for (std::size_t i = index - 3; i <= std::min<std::size_t>(index + 3, 999); ++i) {
      straddling[i] = straddling[index - 3];
    }
  }
  compared += expect_selection_matches_sort(shuffled(straddling, 2));
  std::vector<double> runs(1000);
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = 7e3 * static_cast<double>(i / 50);
  compared += expect_selection_matches_sort(shuffled(runs, 3));

  // One outlier far above the rest.
  std::vector<double> outlier(999);
  for (std::size_t i = 0; i < outlier.size(); ++i) outlier[i] = 1e4 + 17.0 * (i % 101);
  outlier.push_back(1e12);
  compared += expect_selection_matches_sort(shuffled(outlier, 4));

  // Levels 0.5..0.999 for all seven samples, and 1 - 1/n for all but n = 1.
  EXPECT_EQ(compared, 7u * 4u + 6u);
}

TEST(Pricing, SelectionMatchesFullSortOnGeneratedBook) {
  constexpr std::size_t kCatalog = 5'000;
  elt::SyntheticEltConfig elt_config;
  elt_config.catalog_size = kCatalog;
  elt_config.entries = 800;
  const elt::EventLossTable table = elt::make_synthetic_elt(elt_config);
  yet::YetConfig yet_config;
  yet_config.num_trials = 2'000;
  yet_config.events_per_trial = 20.0;
  yet_config.count_model = yet::CountModel::kPoisson;
  yet_config.seed = 11;
  const auto yet_table = yet::generate_uniform_yet(yet_config, kCatalog);

  std::size_t compared = 0;
  for (const double occ_retention : {0.0, 50e3, 400e3}) {
    for (const double occ_limit : {financial::kUnlimited, 1e6}) {
      for (const double agg_retention : {0.0, 1e6}) {
        for (const double agg_limit : {financial::kUnlimited, 3e6}) {
          const LayerTerms terms{occ_retention, occ_limit, agg_retention, agg_limit};
          core::Portfolio portfolio;
          core::Layer layer;
          layer.id = 1;
          layer.terms = terms;
          core::LayerElt layer_elt;
          layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, kCatalog);
          layer.elts.push_back(std::move(layer_elt));
          portfolio.layers.push_back(std::move(layer));
          core::AnalysisConfig config;
          config.engine = core::EngineKind::kSequential;
          const auto ylt = core::run({portfolio, yet_table, config});
          const auto losses = ylt.layer_losses(0);
          compared += expect_selection_matches_sort({losses.begin(), losses.end()}, terms);
        }
      }
    }
  }
  EXPECT_EQ(compared, 24u * 5u);
}

// Each bad assumption fails validate() and price_layer alike, NaN included.
void expect_rejected(const PricingAssumptions& assumptions, const std::string& field) {
  try {
    assumptions.validate();
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos) << error.what();
  }
  EXPECT_THROW(price_layer(synthetic_losses(), LayerTerms{}, assumptions), std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Pricing, DefaultAndBoundaryAssumptionsAreValid) {
  EXPECT_NO_THROW(PricingAssumptions{}.validate());
  PricingAssumptions flat;
  flat.stddev_loading = 0.0;
  flat.tvar_loading = 0.0;
  flat.expense_ratio = 0.0;
  EXPECT_NO_THROW(flat.validate());
}

TEST(Pricing, StddevLoadingMustBeFiniteAndNonNegative) {
  for (const double loading : {-0.01, -5.0, kNaN, kInf}) {
    PricingAssumptions assumptions;
    assumptions.stddev_loading = loading;
    expect_rejected(assumptions, "stddev loading");
  }
}

TEST(Pricing, TvarLoadingMustBeFiniteAndNonNegative) {
  for (const double loading : {-0.01, -5.0, kNaN, kInf}) {
    PricingAssumptions assumptions;
    assumptions.tvar_loading = loading;
    expect_rejected(assumptions, "tvar loading");
  }
}

TEST(Pricing, TvarLevelMustBeInsideTheUnitInterval) {
  for (const double level : {0.0, 1.0, -0.5, 1.5, kNaN}) {
    PricingAssumptions assumptions;
    assumptions.tvar_level = level;
    expect_rejected(assumptions, "tvar level");
  }
}

TEST(Pricing, ExpenseRatioMustBeInHalfOpenUnitInterval) {
  for (const double ratio : {-0.1, 1.0, 2.0, kNaN, kInf}) {
    PricingAssumptions assumptions;
    assumptions.expense_ratio = ratio;
    expect_rejected(assumptions, "expense ratio");
  }
}

}  // namespace
