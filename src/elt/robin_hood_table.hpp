#pragma once

#include <cstdint>
#include <vector>

#include "elt/lookup.hpp"

namespace are::elt {

/// Open-addressing hash table with Robin Hood displacement — the "classic
/// hashing" point in the design space: expected O(1) probes, compact
/// relative to the direct access table, but each probe is a random access
/// and probe chains grow with load factor.
class RobinHoodTable final : public ILossLookup {
 public:
  static constexpr double kMaxLoadFactor = 0.7;

  RobinHoodTable(const EventLossTable& table, std::size_t catalog_size);

  double lookup(EventId event) const noexcept override {
    if (slots_.empty()) return 0.0;
    std::size_t index = hash(event) & mask_;
    std::uint32_t distance = 0;
    for (;;) {
      const Slot& slot = slots_[index];
      if (!slot.occupied) return 0.0;
      if (slot.event == event) return slot.loss;
      // Robin Hood invariant: if our probe distance exceeds the resident's,
      // the key cannot be further along.
      if (distance > slot.distance) return 0.0;
      index = (index + 1) & mask_;
      ++distance;
    }
  }

  /// Batch path: home slots are pure functions of the ids, so a ring of 8
  /// hashes and prefetches that many probes ahead of the compare loop,
  /// whose chains and slot-read counts are lookup()'s.
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  std::size_t memory_bytes() const noexcept override { return slots_.size() * sizeof(Slot); }
  LookupKind kind() const noexcept override { return LookupKind::kRobinHood; }
  std::size_t entry_count() const noexcept override { return entries_; }

  /// Longest probe chain over all occupied slots (test/diagnostic hook).
  std::uint32_t max_probe_distance() const noexcept;

 private:
  struct Slot {
    EventId event = 0;
    std::uint32_t distance = 0;
    double loss = 0.0;
    bool occupied = false;
  };

  static std::uint64_t hash(EventId event) noexcept {
    // Fibonacci-style 64-bit mix of the 32-bit id.
    std::uint64_t x = event;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void insert(EventId event, double loss);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace are::elt
