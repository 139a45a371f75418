#pragma once

#include <cstddef>
#include <span>

namespace are::metrics {

/// Streaming mean/variance (Welford). Numerically stable for the long
/// YLT scans used in pricing.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_ || count_ == 1) min_ = x;
    if (x > max_ || count_ == 1) max_ = x;
  }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical quantile with linear interpolation (type-7, the R/NumPy
/// default): q in [0, 1] of the given sample.
double quantile(std::span<const double> sorted_sample, double q);

/// Mean of the worst (1-q) tail — the Tail Value at Risk at level q,
/// estimated as the average of all sample points at or above the
/// q-quantile.
double tail_value_at_risk(std::span<const double> sorted_sample, double q);

/// tail_value_at_risk of a sample in any order, without sorting all of it:
/// selects the q-quantile's index, sorts only the tail above it and sums
/// that tail in the same descending order, so the result has the bits of
/// the sorted path. Reorders `sample`. Throws std::invalid_argument for an
/// empty sample or q outside (0, 1), like EpCurve::tail_value_at_risk.
double tail_value_at_risk_by_selection(std::span<double> sample, double q);

RunningStats summarize(std::span<const double> sample) noexcept;

}  // namespace are::metrics
