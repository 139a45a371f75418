#pragma once

#include <span>
#include <string>

#include "financial/terms.hpp"
#include "metrics/ep_curve.hpp"

namespace are::pricing {

/// Loadings applied on top of the pure premium when quoting a layer.
struct PricingAssumptions {
  /// Multiplier on the standard deviation of the annual ceded loss
  /// (volatility loading).
  double stddev_loading = 0.35;
  /// Weight on TVaR-based capital cost at `tvar_level` tail probability.
  double tvar_loading = 0.05;
  double tvar_level = 0.99;
  /// Expense ratio: premium is grossed up by 1 / (1 - expense_ratio).
  double expense_ratio = 0.15;

  /// Throws std::invalid_argument naming the first bad field: both loadings
  /// finite and >= 0, tvar_level in (0,1), expense_ratio in [0,1). NaN
  /// fails every check.
  void validate() const;
};

/// A priced quote for one layer, derived from its YLT column.
struct Quote {
  double expected_loss = 0.0;   // pure premium
  double stddev = 0.0;          // volatility of the annual ceded loss
  double tvar = 0.0;            // TVaR at the assumed level
  double technical_premium = 0.0;
  /// Rate on line: premium / occurrence limit (the market's unit price for
  /// capacity; undefined for unlimited layers, reported as 0).
  double rate_on_line = 0.0;
};

/// Prices a layer from its simulated annual ceded losses; validates the
/// assumptions first.
Quote price_layer(std::span<const double> trial_losses, const financial::LayerTerms& terms,
                  const PricingAssumptions& assumptions = {});

/// Renders a one-line underwriter summary (used by the real-time pricing
/// example).
std::string describe(const Quote& quote);

}  // namespace are::pricing
