#include "pricing/pricing.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/statistics.hpp"

namespace are::pricing {

void PricingAssumptions::validate() const {
  const auto require = [](bool valid, const char* what, double value) {
    if (!valid) throw std::invalid_argument(std::string(what) + ", got " + std::to_string(value));
  };
  require(std::isfinite(stddev_loading) && stddev_loading >= 0.0,
          "stddev loading must be finite and >= 0", stddev_loading);
  require(std::isfinite(tvar_loading) && tvar_loading >= 0.0,
          "tvar loading must be finite and >= 0", tvar_loading);
  require(tvar_level > 0.0 && tvar_level < 1.0, "tvar level must be in (0,1)", tvar_level);
  require(expense_ratio >= 0.0 && expense_ratio < 1.0, "expense ratio must be in [0,1)",
          expense_ratio);
}

Quote price_layer(std::span<const double> trial_losses, const financial::LayerTerms& terms,
                  const PricingAssumptions& assumptions) {
  if (trial_losses.empty()) throw std::invalid_argument("cannot price a layer with no trials");
  assumptions.validate();

  const metrics::RunningStats stats = metrics::summarize(trial_losses);
  std::vector<double> scratch(trial_losses.begin(), trial_losses.end());

  Quote quote;
  quote.expected_loss = stats.mean();
  quote.stddev = stats.stddev();
  quote.tvar = metrics::tail_value_at_risk_by_selection(scratch, assumptions.tvar_level);

  const double risk_loaded = quote.expected_loss +
                             assumptions.stddev_loading * quote.stddev +
                             assumptions.tvar_loading * quote.tvar;
  quote.technical_premium = risk_loaded / (1.0 - assumptions.expense_ratio);

  if (terms.occurrence_limit != financial::kUnlimited && terms.occurrence_limit > 0.0) {
    quote.rate_on_line = quote.technical_premium / terms.occurrence_limit;
  }
  return quote;
}

std::string describe(const Quote& quote) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(0);
  out << "EL=" << quote.expected_loss << " sd=" << quote.stddev << " TVaR=" << quote.tvar
      << " premium=" << quote.technical_premium;
  if (quote.rate_on_line > 0.0) {
    out.precision(2);
    out << " ROL=" << 100.0 * quote.rate_on_line << "%";
  }
  return out.str();
}

}  // namespace are::pricing
