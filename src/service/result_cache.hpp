#pragma once

// Result cache of the resident analysis service: completed quotes keyed by
// a fingerprint of everything that determines the YLT bytes — portfolio id
// + generation, effective layer terms (layer and per-ELT), engine name,
// trial range, and coverage window. Entries hold the full YearLossTable
// (shared_ptr, so concurrent hits share one copy and a hit can serve the
// same CSV a cold run would write) plus the per-layer quotes priced from
// it.
//
// Invalidation: the portfolio generation is part of the fingerprint, so any
// book mutation makes prior entries unreachable; invalidate(portfolio_id)
// additionally drops them eagerly so a mutated book never pins stale
// tables in memory. Eviction is LRU over a fixed entry cap.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/year_loss_table.hpp"
#include "pricing/pricing.hpp"

namespace are::service {

/// What one completed quote produced. Immutable once cached; shared between
/// the cache and every response that hit it.
struct QuoteOutcome {
  core::YearLossTable ylt;
  std::vector<pricing::Quote> quotes;  // one per layer, portfolio order
};

/// FNV-1a 64 accumulator over the request identity. Doubles are mixed as
/// bit patterns: fingerprints distinguish exactly what bit-identity
/// distinguishes.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) noexcept;
  Fingerprint& mix_double(double v) noexcept;
  Fingerprint& mix(std::string_view s) noexcept;
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

class ResultCache {
 public:
  explicit ResultCache(std::size_t max_entries = 64) : max_entries_(max_entries) {}

  /// The cached outcome, or nullptr on a miss. A hit refreshes LRU order.
  std::shared_ptr<const QuoteOutcome> get(std::uint64_t key);

  /// Inserts (or replaces) the outcome for `key`, evicting the least
  /// recently used entry when over the cap. `portfolio_id` tags the entry
  /// for invalidate(). No-op when max_entries is 0 (cache disabled).
  void put(std::uint64_t key, std::string portfolio_id,
           std::shared_ptr<const QuoteOutcome> outcome);

  /// Drops every entry of one portfolio (called on book mutation). Returns
  /// the number dropped.
  std::size_t invalidate(std::string_view portfolio_id);

  std::size_t size() const;
  std::size_t max_entries() const noexcept { return max_entries_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string portfolio_id;
    std::shared_ptr<const QuoteOutcome> outcome;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t max_entries_;
};

}  // namespace are::service
