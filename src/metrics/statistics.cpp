#include "metrics/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace are::metrics {

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile(std::span<const double> sorted_sample, double q) {
  if (sorted_sample.empty()) throw std::invalid_argument("quantile of an empty sample");
  if (!(q >= 0.0) || !(q <= 1.0)) throw std::invalid_argument("quantile level must be in [0,1]");
  const double h = q * static_cast<double>(sorted_sample.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted_sample.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted_sample[lo] + frac * (sorted_sample[hi] - sorted_sample[lo]);
}

double tail_value_at_risk(std::span<const double> sorted_sample, double q) {
  if (sorted_sample.empty()) throw std::invalid_argument("TVaR of an empty sample");
  const double var = quantile(sorted_sample, q);
  double sum = 0.0;
  std::size_t count = 0;
  for (auto it = sorted_sample.rbegin(); it != sorted_sample.rend() && *it >= var; ++it) {
    sum += *it;
    ++count;
  }
  return count == 0 ? var : sum / static_cast<double>(count);
}

RunningStats summarize(std::span<const double> sample) noexcept {
  RunningStats stats;
  for (double x : sample) stats.add(x);
  return stats;
}

}  // namespace are::metrics
