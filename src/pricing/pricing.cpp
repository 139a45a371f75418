#include "pricing/pricing.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "metrics/statistics.hpp"

namespace are::pricing {

Quote price_layer(std::span<const double> trial_losses, const financial::LayerTerms& terms,
                  const PricingAssumptions& assumptions) {
  if (trial_losses.empty()) throw std::invalid_argument("cannot price a layer with no trials");
  if (!(assumptions.expense_ratio >= 0.0) || assumptions.expense_ratio >= 1.0) {
    throw std::invalid_argument("expense ratio must be in [0,1)");
  }

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
