#pragma once

#include <cstdint>
#include <vector>

#include "elt/lookup.hpp"

namespace are::elt {

/// Two-choice cuckoo hash table (Pagh & Rodler 2004 — the paper's reference
/// [30]). Worst-case *two* memory accesses per lookup and ~50% space
/// overhead, the "constant-time space-efficient hashing scheme" the paper
/// considers and rejects for its "considerable implementation and run-time
/// performance complexity".
class CuckooTable final : public ILossLookup {
 public:
  CuckooTable(const EventLossTable& table, std::size_t catalog_size);

  double lookup(EventId event) const noexcept override {
    if (buckets_[0].empty()) return 0.0;
    const Slot& first = buckets_[0][hash0(event) & mask_];
    if (first.occupied && first.event == event) return first.loss;
    const Slot& second = buckets_[1][hash1(event) & mask_];
    if (second.occupied && second.event == event) return second.loss;
    return 0.0;
  }

  /// Batch path: both candidate slots are pure functions of the id, so a
  /// ring of 8 prefetches both probes that many keys ahead of the compare,
  /// which reads buckets as lookup() does.
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  std::size_t memory_bytes() const noexcept override {
    return (buckets_[0].size() + buckets_[1].size()) * sizeof(Slot);
  }

  LookupKind kind() const noexcept override { return LookupKind::kCuckoo; }
  std::size_t entry_count() const noexcept override { return entries_; }

  /// Number of whole-table rebuilds triggered during construction (a
  /// diagnostic for the paper's "implementation complexity" claim).
  int rebuild_count() const noexcept { return rebuilds_; }

 private:
  struct Slot {
    EventId event = 0;
    double loss = 0.0;
    bool occupied = false;
  };

  std::uint64_t hash0(EventId event) const noexcept {
    std::uint64_t x = event + seed0_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t hash1(EventId event) const noexcept {
    std::uint64_t x = event + seed1_;
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
    x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  /// Inserts with displacement; returns false when a cycle is detected and
  /// a rehash with fresh seeds is required.
  bool try_insert(EventId event, double loss);
  void build(const EventLossTable& table);

  std::vector<Slot> buckets_[2];
  std::size_t mask_ = 0;
  std::size_t entries_ = 0;
  std::uint64_t seed0_ = 0x1234567890abcdefULL;
  std::uint64_t seed1_ = 0xfedcba0987654321ULL;
  int rebuilds_ = 0;
};

}  // namespace are::elt
