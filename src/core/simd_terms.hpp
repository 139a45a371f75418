#pragma once

// Financial and layer terms broadcast into vector registers, shared by
// every lane type of the trial-block kernel (core/trial_kernel_body.hpp
// batches a block's events across lanes). One definition keeps the
// bit-identity contract in one place: every helper rounds exactly like the
// scalar expressions in financial/terms.hpp (see the min/max convention
// note in simd/vec.hpp).

#include "financial/terms.hpp"

namespace are::core::detail {

/// Per-ELT financial terms broadcast into vector registers, hoisted out of
/// the event loop.
template <typename V>
struct EltTermsV {
  typename V::reg rate, retention, limit, share;

  static EltTermsV from(const financial::FinancialTerms& terms) {
    return {V::broadcast(terms.currency_rate), V::broadcast(terms.occurrence_retention),
            V::broadcast(terms.occurrence_limit), V::broadcast(terms.share)};
  }
};

/// Layer terms broadcast into vector registers.
template <typename V>
struct LayerTermsV {
  typename V::reg occ_retention, occ_limit, agg_retention, agg_limit;

  static LayerTermsV from(const financial::LayerTerms& terms) {
    return {V::broadcast(terms.occurrence_retention), V::broadcast(terms.occurrence_limit),
            V::broadcast(terms.aggregate_retention), V::broadcast(terms.aggregate_limit)};
  }
};

/// Vector excess_of_loss: min(max(x - retention, 0), limit). Identical
/// rounding to the scalar branchy form for the engine's domain (finite
/// non-negative losses, +inf limits) — see the contract note in vec.hpp.
template <typename V>
typename V::reg excess_v(typename V::reg x, typename V::reg retention,
                         typename V::reg limit) noexcept {
  return V::min(V::max(V::sub(x, retention), V::zero()), limit);
}

/// FinancialTerms::apply on a register of raw event losses.
template <typename V>
typename V::reg apply_financial_v(typename V::reg loss, const EltTermsV<V>& terms) noexcept {
  return V::mul(excess_v<V>(V::mul(loss, terms.rate), terms.retention, terms.limit), terms.share);
}

}  // namespace are::core::detail
