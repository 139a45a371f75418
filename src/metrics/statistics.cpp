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

double tail_value_at_risk_by_selection(std::span<double> sample, double q) {
  if (sample.empty()) throw std::invalid_argument("TVaR of an empty sample");
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument("TVaR confidence level must be in (0,1)");
  }
  // quantile()'s interpolation, with sorted[lo] selected in place and
  // sorted[hi] the least element of the tail above it.
  const double h = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const auto at_lo = sample.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(sample.begin(), at_lo, sample.end());
  const auto tail = at_lo + 1;
  std::sort(tail, sample.end());
  const double low = *at_lo;
  const double high = tail != sample.end() ? *tail : low;
  const double var = low + (h - static_cast<double>(lo)) * (high - low);

  // The sorted loop: descending from the top while at or above VaR.
  double sum = 0.0;
  std::size_t count = 0;
  auto it = sample.end();
  for (; it != tail && *(it - 1) >= var; --it) {
    sum += *(it - 1);
    ++count;
  }
  if (it == tail && low >= var) {
    // The loop reaches the VaR index. var >= sorted[lo] always, so there
    // VaR equals sorted[lo], and the sorted loop goes on through every
    // equal value below the index too (all of them when more than 1 - q of
    // the sample is tied there, e.g. at zero). Equal values sum alike in
    // any order.
    for (auto below = sample.begin(); below != tail; ++below) {
      if (*below >= var) {
        sum += *below;
        ++count;
      }
    }
  }
  return count == 0 ? var : sum / static_cast<double>(count);
}

RunningStats summarize(std::span<const double> sample) noexcept {
  RunningStats stats;
  for (double x : sample) stats.add(x);
  return stats;
}

}  // namespace are::metrics
