#include "metrics/convergence.hpp"

#include <cmath>
#include <stdexcept>

#include "metrics/statistics.hpp"

namespace are::metrics {

double mean_standard_error(std::span<const double> losses) {
  if (losses.size() < 2) throw std::invalid_argument("standard error needs >= 2 samples");
  const RunningStats stats = summarize(losses);
  return stats.stddev() / std::sqrt(static_cast<double>(losses.size()));
}

}  // namespace are::metrics
