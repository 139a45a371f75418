#include "pricing/sensitivity.hpp"

#include <cmath>
#include <stdexcept>

#include "core/analysis.hpp"

namespace are::pricing {

namespace {

/// Every re-pricing runs the sequential reference engine.
core::YearLossTable run_reference(const core::Portfolio& portfolio,
                                  const yet::YearEventTable& yet_table) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kSequential;
  return core::run({portfolio, yet_table, config});
}

double premium_at(const core::Portfolio& base, std::size_t layer_index,
                  const financial::LayerTerms& terms, const yet::YearEventTable& yet_table,
                  const PricingAssumptions& assumptions) {
  core::Portfolio bumped = base;
  bumped.layers[layer_index].terms = terms;
  const core::YearLossTable ylt = run_reference(bumped, yet_table);
  return price_layer(ylt.layer_losses(layer_index), terms, assumptions).technical_premium;
}

/// Central difference d premium / d term for one term field, or 0 for
/// unlimited terms.
double central_difference(const core::Portfolio& portfolio, std::size_t layer_index,
                          const yet::YearEventTable& yet_table,
                          const SensitivityOptions& options, double financial::LayerTerms::*field) {
  const financial::LayerTerms base = portfolio.layers[layer_index].terms;
  const double value = base.*field;
  if (value == financial::kUnlimited) return 0.0;

  const double bump =
      std::max(std::abs(value) * options.relative_bump, options.absolute_bump_floor);

  financial::LayerTerms up = base;
  up.*field = value + bump;
  financial::LayerTerms down = base;
  down.*field = std::max(value - bump, 0.0);
  const double actual_width = (up.*field) - (down.*field);
  if (actual_width <= 0.0) return 0.0;

  const double premium_up =
      premium_at(portfolio, layer_index, up, yet_table, options.assumptions);
  const double premium_down =
      premium_at(portfolio, layer_index, down, yet_table, options.assumptions);
  return (premium_up - premium_down) / actual_width;
}

}  // namespace

TermSensitivities term_sensitivities(const core::Portfolio& portfolio,
                                     const yet::YearEventTable& yet_table,
                                     std::size_t layer_index,
                                     const SensitivityOptions& options) {
  if (layer_index >= portfolio.layers.size()) {
    throw std::invalid_argument("layer index out of range");
  }
  if (!(options.relative_bump > 0.0)) {
    throw std::invalid_argument("relative bump must be > 0");
  }

  TermSensitivities sensitivities;
  const core::YearLossTable base_ylt = run_reference(portfolio, yet_table);
  sensitivities.base = price_layer(base_ylt.layer_losses(layer_index),
                                   portfolio.layers[layer_index].terms, options.assumptions);

  sensitivities.d_occurrence_retention = central_difference(
      portfolio, layer_index, yet_table, options, &financial::LayerTerms::occurrence_retention);
  sensitivities.d_occurrence_limit = central_difference(
      portfolio, layer_index, yet_table, options, &financial::LayerTerms::occurrence_limit);
  sensitivities.d_aggregate_retention = central_difference(
      portfolio, layer_index, yet_table, options, &financial::LayerTerms::aggregate_retention);
  sensitivities.d_aggregate_limit = central_difference(
      portfolio, layer_index, yet_table, options, &financial::LayerTerms::aggregate_limit);
  return sensitivities;
}

}  // namespace are::pricing
