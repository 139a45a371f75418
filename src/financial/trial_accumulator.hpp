#pragma once

#include "financial/terms.hpp"

namespace are::financial {

/// Streaming application of the layer's aggregate terms across the ordered
/// event occurrences of one trial (paper lines 12-19).
///
/// Aggregate terms are path-dependent: the ceded amount of event k is the
/// *increment* of the capped cumulative loss, so it depends on the sequence
/// of prior events in the trial. This accumulator makes that recurrence an
/// O(1)-state object so the kernel can carry it across event chunks.
class TrialAccumulator {
 public:
  constexpr explicit TrialAccumulator(const LayerTerms& terms) noexcept : terms_(terms) {}

  /// Feeds the next occurrence loss (already net of occurrence terms) and
  /// returns the amount ceded under the aggregate terms for this event.
  constexpr double add_occurrence(double occurrence_loss) noexcept {
    cumulative_ += occurrence_loss;
    const double capped = terms_.apply_aggregate(cumulative_);
    const double increment = capped - previous_capped_;
    previous_capped_ = capped;
    trial_loss_ += increment;
    return increment;
  }

  /// Total ceded loss for the trial so far (the YLT entry, paper line 19).
  constexpr double trial_loss() const noexcept { return trial_loss_; }

  /// Raw cumulative occurrence loss before aggregate terms.
  constexpr double cumulative_occurrence_loss() const noexcept { return cumulative_; }

  constexpr void reset() noexcept {
    cumulative_ = 0.0;
    previous_capped_ = 0.0;
    trial_loss_ = 0.0;
  }

 private:
  LayerTerms terms_;
  double cumulative_ = 0.0;
  double previous_capped_ = 0.0;
  double trial_loss_ = 0.0;
};

}  // namespace are::financial
