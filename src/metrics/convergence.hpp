#pragma once

#include <span>

namespace are::metrics {

/// Standard error of the sample mean of the trial losses: how far the
/// Monte Carlo estimate of the expected annual loss may sit from its limit
/// at this trial count.
double mean_standard_error(std::span<const double> losses);

}  // namespace are::metrics
