#pragma once

#include <vector>

#include "elt/lookup.hpp"
#include "mem/huge_pages.hpp"

namespace are::elt {

/// The paper's chosen ELT representation: a dense array of losses indexed
/// directly by event id. "Highly sparse ... very fast lookup performance at
/// the cost of high memory usage" — e.g. a 2M-event catalog with a 20K-entry
/// ELT stores 2M doubles of which 1.98M are zero, but every lookup is a
/// single memory access, which matters because aggregate analysis is
/// memory-access bound (78% of time in ELT lookups, Fig 6b). Tables of
/// 2 MiB and more sit on transparent huge pages (mem/huge_pages.hpp), so
/// those accesses rarely miss the TLB as well.
///
/// While telemetry is on, building a table adds its bytes to the gauge
/// `elt.direct_access.bytes` and the part of them on 2 MiB pages to
/// `elt.direct_access.huge_page_bytes`; destroying it takes them off again.
class DirectAccessTable final : public ILossLookup {
 public:
  DirectAccessTable(const EventLossTable& table, std::size_t catalog_size);
  DirectAccessTable(const DirectAccessTable& other);
  DirectAccessTable(DirectAccessTable&& other) noexcept;
  DirectAccessTable& operator=(DirectAccessTable other) noexcept;
  ~DirectAccessTable() override;

  double lookup(EventId event) const noexcept override {
    // A single dependent load; out-of-universe ids return 0 via the guard.
    return event < losses_.size() ? losses_[event] : 0.0;
  }

  /// Batch path: same guarded loads with the probe target prefetched a few
  /// iterations ahead (the ids are known, only the loads are random).
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  std::size_t memory_bytes() const noexcept override {
    return losses_.size() * sizeof(double);
  }

  LookupKind kind() const noexcept override { return LookupKind::kDirectAccess; }
  std::size_t entry_count() const noexcept override { return entries_; }
  const DirectAccessTable* as_direct_access() const noexcept override { return this; }

  /// Raw dense view for the chunked/simgpu kernels, which model coalesced
  /// array access explicitly.
  const double* data() const noexcept { return losses_.data(); }
  std::size_t universe() const noexcept { return losses_.size(); }

 private:
  /// What this table added to the two gauges, so destruction takes off
  /// exactly that.
  struct Gauged {
    std::size_t bytes = 0;
    std::size_t huge_page_bytes = 0;
  };

  void add_to_gauges();

  std::vector<double, mem::HugePageAllocator<double>> losses_;
  std::size_t entries_ = 0;
  Gauged gauged_;
};

}  // namespace are::elt
