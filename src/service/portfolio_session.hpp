#pragma once

// Resident state of the analysis service: the YET and thread pool loaded
// once and reused across every request (the amortization the paper's
// one-shot pipeline cannot offer), plus the registered portfolio books.
//
// Each book carries two version numbers:
//
//   - `generation` bumps on *any* mutation and is part of the result-cache
//     fingerprint, so stale quotes become unreachable.
//   - `structure_generation` bumps only on mutations that change the ELT
//     sets or per-ELT FinancialTerms — exactly the inputs the ground-up
//     loss cache depends on. A terms-only update (update_layer_terms) bumps
//     `generation` but not `structure_generation`, which is what keeps the
//     captured ground-up losses valid for delta re-pricing.
//
// Ground-up captures follow a claim/publish protocol so concurrent cold
// runs do not duplicate the (layers x events x 8 bytes) buffer: one caller
// claims the capture slot, runs with TrialKernelConfig::ground_up_capture,
// then publishes (or abandons on failure). Published caches are immutable
// and shared_ptr'd, so replays run lock-free against a snapshot even while
// a later mutation swaps the book.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/layer.hpp"
#include "core/trial_kernel.hpp"
#include "financial/terms.hpp"
#include "parallel/thread_pool.hpp"
#include "yet/year_event_table.hpp"

namespace are::service {

struct SessionConfig {
  /// Worker threads of the resident pool; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Total bytes of ground-up loss caches the session may keep resident
  /// across all books; a capture whose buffer would exceed it is not
  /// claimed (requests still run, just without the delta fast path).
  /// 0 = delta caching disabled.
  std::size_t ground_up_budget_bytes = 512ull << 20;
};

class PortfolioSession {
 public:
  /// Immutable view of one book at a point in time. The shared_ptrs keep
  /// the portfolio and ground-up cache alive for the duration of a request
  /// even if the book mutates mid-run.
  struct BookSnapshot {
    std::shared_ptr<const core::Portfolio> portfolio;
    std::uint64_t generation = 0;
    std::uint64_t structure_generation = 0;
    /// Ground-up losses captured at this structure_generation, or null when
    /// no capture has been published yet.
    std::shared_ptr<const core::GroundUpLossCache> ground_up;
  };

  explicit PortfolioSession(yet::YearEventTable yet_table, SessionConfig config = {});

  const yet::YearEventTable& yet_table() const noexcept { return yet_; }
  parallel::ThreadPool& pool() noexcept { return pool_; }
  const SessionConfig& config() const noexcept { return config_; }

  /// Registers (or wholesale replaces) a book. Validates the portfolio,
  /// bumps both generations, and drops any published ground-up cache —
  /// a replacement may change ELT structure arbitrarily.
  void register_portfolio(std::string id, core::Portfolio portfolio);

  /// Terms-only mutation: replaces the LayerTerms of one layer. Bumps
  /// `generation` (result-cache entries for the old terms stay reachable —
  /// the terms are part of the fingerprint — but the generation records the
  /// mutation) and *keeps* the ground-up cache: occurrence/aggregate terms
  /// are applied after the cached combine stage, so delta replay stays
  /// bit-identical. Throws std::invalid_argument on unknown ids.
  void update_layer_terms(std::string_view id, std::uint32_t layer_id,
                          const financial::LayerTerms& terms);

  /// Current snapshot of a book; throws std::invalid_argument when unknown.
  BookSnapshot snapshot(std::string_view id) const;

  /// Claims the capture slot of a book: returns true iff no published cache
  /// exists for `structure_generation`, no other capture is in flight, and
  /// `estimated_bytes` fits the remaining ground-up budget. A successful
  /// claim must be followed by publish_ground_up or abandon_capture.
  bool try_claim_capture(std::string_view id, std::uint64_t structure_generation,
                         std::size_t estimated_bytes);

  /// Publishes a completed capture. Discarded (not an error) when the book
  /// mutated structurally while the capture ran — the cache no longer
  /// describes the book.
  void publish_ground_up(std::string_view id, std::uint64_t structure_generation,
                         std::shared_ptr<const core::GroundUpLossCache> cache);

  void abandon_capture(std::string_view id);

 private:
  struct Book {
    std::shared_ptr<const core::Portfolio> portfolio;
    std::uint64_t generation = 0;
    std::uint64_t structure_generation = 0;
    std::shared_ptr<const core::GroundUpLossCache> ground_up;
    bool capture_claimed = false;
  };

  // Both called under mutex_.
  Book& book_or_throw(std::string_view id);
  const Book& book_or_throw(std::string_view id) const;
  void set_ground_up_locked(Book& book,
                            std::shared_ptr<const core::GroundUpLossCache> cache);

  yet::YearEventTable yet_;
  SessionConfig config_;
  parallel::ThreadPool pool_;
  mutable std::mutex mutex_;
  std::map<std::string, Book, std::less<>> books_;
  std::size_t ground_up_bytes_ = 0;
};

}  // namespace are::service
