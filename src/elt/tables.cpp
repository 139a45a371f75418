#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "elt/cuckoo_table.hpp"
#include "elt/direct_access_table.hpp"
#include "elt/paged_direct_table.hpp"
#include "elt/robin_hood_table.hpp"
#include "elt/sorted_table.hpp"
#include "obs/telemetry.hpp"
#include "simd/prefetch.hpp"

namespace are::elt {

namespace {

// Probe counters accumulate in locals inside the batch loops (a register
// increment, noise next to the memory traffic being counted) and flush to
// the registry once per lookup_many call, gated on obs::enabled(). The
// scalar lookup() entry points stay uninstrumented — the kernel only calls
// the batch path, and per-call gating there would cost more than it tells.

void validate_universe(const EventLossTable& table, std::size_t catalog_size) {
  if (!table.empty() && table.max_event() >= catalog_size) {
    throw std::invalid_argument("ELT contains an event id outside the catalog universe");
  }
}

std::size_t next_pow2(std::size_t n) {
  return n <= 1 ? 1 : std::bit_ceil(n);
}

struct DirectTableGauges {
  obs::Gauge& bytes;
  obs::Gauge& huge_page_bytes;
};

const DirectTableGauges& direct_table_gauges() {
  obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
  static const DirectTableGauges gauges{registry.gauge("elt.direct_access.bytes"),
                                        registry.gauge("elt.direct_access.huge_page_bytes")};
  return gauges;
}

}  // namespace

DirectAccessTable::DirectAccessTable(const EventLossTable& table, std::size_t catalog_size) {
  validate_universe(table, catalog_size);
  losses_.assign(catalog_size, 0.0);
  for (const EventLoss& record : table.records()) {
    losses_[record.event] = record.loss;
    ++entries_;
  }
  add_to_gauges();
}

DirectAccessTable::DirectAccessTable(const DirectAccessTable& other)
    : losses_(other.losses_), entries_(other.entries_) {
  add_to_gauges();
}

DirectAccessTable::DirectAccessTable(DirectAccessTable&& other) noexcept
    : losses_(std::move(other.losses_)),
      entries_(other.entries_),
      gauged_(std::exchange(other.gauged_, {})) {}

DirectAccessTable& DirectAccessTable::operator=(DirectAccessTable other) noexcept {
  // The old table leaves in `other`, which takes its gauge share along.
  std::swap(losses_, other.losses_);
  std::swap(entries_, other.entries_);
  std::swap(gauged_, other.gauged_);
  return *this;
}

DirectAccessTable::~DirectAccessTable() {
  if (gauged_.bytes == 0) return;
  const DirectTableGauges& gauges = direct_table_gauges();
  gauges.bytes.add(-static_cast<std::int64_t>(gauged_.bytes));
  gauges.huge_page_bytes.add(-static_cast<std::int64_t>(gauged_.huge_page_bytes));
}

void DirectAccessTable::add_to_gauges() {
  if (!obs::enabled()) return;
  // The table's whole allocation: rounded up to 2 MiB pages when it has
  // its own mapping. Only such a mapping can be read back from smaps.
  gauged_.bytes = mem::allocated_bytes(losses_.capacity() * sizeof(double));
  gauged_.huge_page_bytes = mem::uses_huge_pages(gauged_.bytes)
                                ? mem::huge_page_bytes(losses_.data(), gauged_.bytes)
                                : 0;
  const DirectTableGauges& gauges = direct_table_gauges();
  gauges.bytes.add(static_cast<std::int64_t>(gauged_.bytes));
  gauges.huge_page_bytes.add(static_cast<std::int64_t>(gauged_.huge_page_bytes));
}

void DirectAccessTable::lookup_many(const EventId* events, std::size_t count,
                                    double* out) const noexcept {
  constexpr std::size_t kLookahead = 16;
  const double* data = losses_.data();
  const std::size_t universe = losses_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) {
      const EventId ahead = events[i + kLookahead];
      if (ahead < universe) simd::prefetch_read(data + ahead);
    }
    const EventId event = events[i];
    out[i] = event < universe ? data[event] : 0.0;
  }
  if (obs::enabled()) {
    static obs::Counter& lookups =
        obs::TelemetryRegistry::global().counter("elt.direct_access.lookups");
    lookups.add(count);
  }
}

void SortedTable::lookup_many(const EventId* events, std::size_t count,
                              double* out) const noexcept {
  constexpr std::size_t kGroup = 8;
  const std::size_t n = events_.size();
  std::uint64_t compares = 0;
  for (std::size_t base = 0; base < count; base += kGroup) {
    const std::size_t group = std::min(kGroup, count - base);
    std::size_t lo[kGroup];
    std::size_t hi[kGroup];
    std::size_t mid[kGroup];
    for (std::size_t q = 0; q < group; ++q) {
      lo[q] = 0;
      hi[q] = n;
    }
    // One level of every query's binary search per pass: all probes are
    // prefetched before the first compare touches any of them.
    for (bool active = n != 0; active;) {
      for (std::size_t q = 0; q < group; ++q) {
        if (lo[q] < hi[q]) {
          mid[q] = lo[q] + (hi[q] - lo[q]) / 2;
          simd::prefetch_read(events_.data() + mid[q]);
        }
      }
      active = false;
      for (std::size_t q = 0; q < group; ++q) {
        if (lo[q] >= hi[q]) continue;
        ++compares;
        if (events_[mid[q]] < events[base + q]) {
          lo[q] = mid[q] + 1;
        } else {
          hi[q] = mid[q];
        }
        active |= lo[q] < hi[q];
      }
    }
    for (std::size_t q = 0; q < group; ++q) {
      const std::size_t position = lo[q];
      out[base + q] =
          (position < n && events_[position] == events[base + q]) ? losses_[position] : 0.0;
    }
  }
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    static obs::Counter& lookups = registry.counter("elt.sorted_vector.lookups");
    static obs::Counter& probes = registry.counter("elt.sorted_vector.probes");
    lookups.add(count);
    probes.add(compares);
  }
}

void RobinHoodTable::lookup_many(const EventId* events, std::size_t count,
                                 double* out) const noexcept {
  if (slots_.empty()) {
    for (std::size_t i = 0; i < count; ++i) out[i] = 0.0;
    return;
  }
  std::uint64_t slot_reads = 0;
  constexpr std::size_t kLookahead = 8;
  std::size_t home[kLookahead];
  const std::size_t primed = std::min(kLookahead, count);
  for (std::size_t i = 0; i < primed; ++i) {
    home[i] = hash(events[i]) & mask_;
    simd::prefetch_read(slots_.data() + home[i]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t index = home[i % kLookahead];
    if (i + kLookahead < count) {
      const std::size_t ahead = hash(events[i + kLookahead]) & mask_;
      home[i % kLookahead] = ahead;  // the ring slot just consumed
      simd::prefetch_read(slots_.data() + ahead);
    }
    // Probe chain identical to lookup().
    const EventId event = events[i];
    double result = 0.0;
    std::uint32_t distance = 0;
    for (;;) {
      ++slot_reads;
      const Slot& slot = slots_[index];
      if (!slot.occupied) break;
      if (slot.event == event) {
        result = slot.loss;
        break;
      }
      if (distance > slot.distance) break;
      index = (index + 1) & mask_;
      ++distance;
    }
    out[i] = result;
  }
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    static obs::Counter& lookups = registry.counter("elt.robin_hood.lookups");
    static obs::Counter& probes = registry.counter("elt.robin_hood.probes");
    lookups.add(count);
    probes.add(slot_reads);
  }
}

void CuckooTable::lookup_many(const EventId* events, std::size_t count,
                              double* out) const noexcept {
  if (buckets_[0].empty()) {
    for (std::size_t i = 0; i < count; ++i) out[i] = 0.0;
    return;
  }
  std::uint64_t bucket_reads = 0;
  constexpr std::size_t kLookahead = 8;
  std::size_t home0[kLookahead];
  std::size_t home1[kLookahead];
  const std::size_t primed = std::min(kLookahead, count);
  for (std::size_t i = 0; i < primed; ++i) {
    home0[i] = hash0(events[i]) & mask_;
    home1[i] = hash1(events[i]) & mask_;
    simd::prefetch_read(buckets_[0].data() + home0[i]);
    simd::prefetch_read(buckets_[1].data() + home1[i]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index0 = home0[i % kLookahead];
    const std::size_t index1 = home1[i % kLookahead];
    if (i + kLookahead < count) {
      const EventId ahead = events[i + kLookahead];
      const std::size_t slot = i % kLookahead;  // the ring slot just consumed
      home0[slot] = hash0(ahead) & mask_;
      home1[slot] = hash1(ahead) & mask_;
      simd::prefetch_read(buckets_[0].data() + home0[slot]);
      simd::prefetch_read(buckets_[1].data() + home1[slot]);
    }
    const EventId event = events[i];
    const Slot& first = buckets_[0][index0];
    ++bucket_reads;
    if (first.occupied && first.event == event) {
      out[i] = first.loss;
      continue;
    }
    const Slot& second = buckets_[1][index1];
    ++bucket_reads;
    out[i] = (second.occupied && second.event == event) ? second.loss : 0.0;
  }
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    static obs::Counter& lookups = registry.counter("elt.cuckoo.lookups");
    static obs::Counter& probes = registry.counter("elt.cuckoo.probes");
    lookups.add(count);
    probes.add(bucket_reads);
  }
}

void PagedDirectTable::lookup_many(const EventId* events, std::size_t count,
                                   double* out) const noexcept {
  static constexpr double kZero = 0.0;
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kLookahead = 8;
  const double* slot_ptr[kBlock];
  std::uint64_t zero_hits = 0;
  for (std::size_t base = 0; base < count; base += kBlock) {
    const std::size_t block = std::min(kBlock, count - base);
    // Pass 1: resolve every slot address through the page table (its own
    // reads prefetched ahead) and prefetch the slots.
    for (std::size_t i = 0; i < block; ++i) {
      if (i + kLookahead < block) {
        const std::uint32_t ahead_page = events[base + i + kLookahead] >> kPageBits;
        if (ahead_page < page_table_.size()) {
          simd::prefetch_read(page_table_.data() + ahead_page);
        }
      }
      const EventId event = events[base + i];
      const std::uint32_t page = event >> kPageBits;
      if (page < page_table_.size()) {
        const std::uint32_t page_index = page_table_[page];
        zero_hits += page_index == 0;
        slot_ptr[i] = pages_[page_index].data() + (event & kPageMask);
        simd::prefetch_read(slot_ptr[i]);
      } else {
        ++zero_hits;
        slot_ptr[i] = &kZero;
      }
    }
    // Pass 2: the slot loads, now overlapped.
    for (std::size_t i = 0; i < block; ++i) out[base + i] = *slot_ptr[i];
  }
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    static obs::Counter& lookups = registry.counter("elt.paged_direct.lookups");
    static obs::Counter& zero_page = registry.counter("elt.paged_direct.zero_page_hits");
    lookups.add(count);
    zero_page.add(zero_hits);
  }
}

SortedTable::SortedTable(const EventLossTable& table, std::size_t catalog_size) {
  validate_universe(table, catalog_size);
  events_.reserve(table.size());
  losses_.reserve(table.size());
  for (const EventLoss& record : table.records()) {
    events_.push_back(record.event);
    losses_.push_back(record.loss);
  }
}

RobinHoodTable::RobinHoodTable(const EventLossTable& table, std::size_t catalog_size) {
  validate_universe(table, catalog_size);
  const std::size_t capacity =
      next_pow2(static_cast<std::size_t>(static_cast<double>(table.size()) / kMaxLoadFactor) + 1);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const EventLoss& record : table.records()) insert(record.event, record.loss);
}

void RobinHoodTable::insert(EventId event, double loss) {
  std::size_t index = hash(event) & mask_;
  Slot incoming{event, 0, loss, true};
  for (;;) {
    Slot& slot = slots_[index];
    if (!slot.occupied) {
      slot = incoming;
      ++entries_;
      return;
    }
    if (slot.event == incoming.event) {
      slot.loss = incoming.loss;
      return;
    }
    if (incoming.distance > slot.distance) std::swap(incoming, slot);
    index = (index + 1) & mask_;
    ++incoming.distance;
  }
}

std::uint32_t RobinHoodTable::max_probe_distance() const noexcept {
  std::uint32_t max_distance = 0;
  for (const Slot& slot : slots_) {
    if (slot.occupied) max_distance = std::max(max_distance, slot.distance);
  }
  return max_distance;
}

PagedDirectTable::PagedDirectTable(const EventLossTable& table, std::size_t catalog_size) {
  validate_universe(table, catalog_size);
  const std::size_t num_pages = (catalog_size + kPageSize - 1) / kPageSize;
  page_table_.assign(num_pages, 0);  // everything points at the zero page
  pages_.emplace_back();             // pages_[0]: shared all-zero page
  pages_[0].fill(0.0);

  for (const EventLoss& record : table.records()) {
    const std::uint32_t page = record.event >> kPageBits;
    if (page_table_[page] == 0) {
      page_table_[page] = static_cast<std::uint32_t>(pages_.size());
      pages_.emplace_back();
      pages_.back().fill(0.0);
    }
    pages_[page_table_[page]][record.event & kPageMask] = record.loss;
    ++entries_;
  }
}

CuckooTable::CuckooTable(const EventLossTable& table, std::size_t catalog_size) {
  validate_universe(table, catalog_size);
  build(table);
}

void CuckooTable::build(const EventLossTable& table) {
  // Each of the two tables holds `capacity` slots; combined load <= 50% at
  // the initial sizing, which keeps insertion cycles rare.
  std::size_t capacity = next_pow2(table.size() + 1);
  for (int attempt = 0; attempt < 64; ++attempt) {
    buckets_[0].assign(capacity, Slot{});
    buckets_[1].assign(capacity, Slot{});
    mask_ = capacity - 1;
    entries_ = 0;
    bool ok = true;
    for (const EventLoss& record : table.records()) {
      if (!try_insert(record.event, record.loss)) {
        ok = false;
        break;
      }
    }
    if (ok) return;
    // Cycle: rehash with fresh seeds; every other failure, also grow.
    ++rebuilds_;
    seed0_ = seed0_ * 6364136223846793005ULL + 1442695040888963407ULL;
    seed1_ = seed1_ * 2862933555777941757ULL + 3037000493ULL;
    if (rebuilds_ % 2 == 0) capacity *= 2;
  }
  throw std::runtime_error("cuckoo table failed to build after 64 rehash attempts");
}

bool CuckooTable::try_insert(EventId event, double loss) {
  // Update in place if present.
  for (int side = 0; side < 2; ++side) {
    const std::size_t index =
        (side == 0 ? hash0(event) : hash1(event)) & mask_;
    Slot& slot = buckets_[side][index];
    if (slot.occupied && slot.event == event) {
      slot.loss = loss;
      return true;
    }
  }

  Slot incoming{event, loss, true};
  int side = 0;
  // The displacement chain length bound: past this we declare a cycle.
  const int max_kicks = 32 + static_cast<int>(std::bit_width(mask_ + 1)) * 4;
  for (int kick = 0; kick < max_kicks; ++kick) {
    const std::size_t index =
        (side == 0 ? hash0(incoming.event) : hash1(incoming.event)) & mask_;
    Slot& slot = buckets_[side][index];
    if (!slot.occupied) {
      slot = incoming;
      ++entries_;
      return true;
    }
    std::swap(incoming, slot);
    side ^= 1;
  }
  return false;
}

std::unique_ptr<ILossLookup> make_lookup(LookupKind kind, const EventLossTable& table,
                                         std::size_t catalog_size) {
  switch (kind) {
    case LookupKind::kDirectAccess:
      return std::make_unique<DirectAccessTable>(table, catalog_size);
    case LookupKind::kSortedVector:
      return std::make_unique<SortedTable>(table, catalog_size);
    case LookupKind::kRobinHood:
      return std::make_unique<RobinHoodTable>(table, catalog_size);
    case LookupKind::kCuckoo:
      return std::make_unique<CuckooTable>(table, catalog_size);
    case LookupKind::kPagedDirect:
      return std::make_unique<PagedDirectTable>(table, catalog_size);
  }
  throw std::invalid_argument("unknown lookup kind");
}

}  // namespace are::elt
