#pragma once

// Deterministic, seedable fault injection — the chaos half of the failure
// hardening story. Production code declares named *sites* at the exact
// points where the real world fails (spill writes, shard fault-ins, binary
// I/O, kernel scratch allocation, the service socket loop); tests, CI, and
// operators arm those sites with triggers, and the hardened paths above
// them get exercised on demand instead of waiting for a full disk.
//
// Sites are armed with SITE=SPEC pairs:
//
//   shard.spill_write=always        fire on every hit
//   shard.spill_write=every:3       fire on hits 3, 6, 9, ...
//   io.read=after:10                fire on every hit past the 10th
//   io.read=once                    fire on the first hit only
//   kernel.alloc=prob:0.01          fire with probability 0.01 per hit,
//   kernel.alloc=prob:0.01:42         deterministically derived from the
//                                     (seed, site, hit index) triple — same
//                                     seed, same firing pattern, any thread
//                                     interleaving
//   shard.spill_write=never         disarm the site
//
// Sources, in the order a process applies them: the ARE_FAULT environment
// variable (comma-separated list, parsed by are_cli at startup),
// `are_cli --fault LIST` on any command, and a ScopedArm for API
// embedders (armed for the scope that holds it). Every fire bumps a
// per-site tally and the obs counter `fault.injected.<site>`, so chaos runs
// can assert exactly what they provoked.
//
// Cost when disarmed: one relaxed atomic load per site hit (armed() below)
// — the same gate discipline as obs::enabled(), so production hot paths pay
// nothing for the instrumentation.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace are::fault {

/// Canonical site names, so call sites and tests cannot drift apart.
namespace sites {
inline constexpr std::string_view kShardSpillWrite = "shard.spill_write";
inline constexpr std::string_view kShardFaultRead = "shard.fault_read";
inline constexpr std::string_view kShardCorruptRead = "shard.corrupt_read";
inline constexpr std::string_view kIoRead = "io.read";
inline constexpr std::string_view kIoWrite = "io.write";
inline constexpr std::string_view kKernelAlloc = "kernel.alloc";
inline constexpr std::string_view kServiceSocket = "service.socket";
}  // namespace sites

/// A parsed trigger spec (see the header comment for the grammar).
struct Trigger {
  enum class Kind : std::uint8_t { kNever, kAlways, kOnce, kEveryNth, kAfterNth, kProbability };
  Kind kind = Kind::kNever;
  std::uint64_t n = 0;       // every:N / after:N
  double probability = 0.0;  // prob:P
  std::uint64_t seed = 0;    // prob:P:SEED (0 = default stream)
};

/// Parses "always" / "never" / "once" / "every:N" / "after:N" /
/// "prob:P[:SEED]"; throws std::invalid_argument on anything else.
Trigger parse_trigger(std::string_view spec);

/// Pure trigger evaluation for hit number `hit` (1-based) at a site whose
/// name hashes to `site_hash` — exposed so determinism is testable without
/// the global registry.
bool trigger_fires(const Trigger& trigger, std::uint64_t site_hash, std::uint64_t hit) noexcept;

namespace detail {
std::atomic<std::uint64_t>& armed_count() noexcept;
}  // namespace detail

/// True when any site in the process is armed — the only check a disarmed
/// injection point performs.
inline bool armed() noexcept {
  return detail::armed_count().load(std::memory_order_relaxed) != 0;
}

/// Process-wide site registry. All methods are thread-safe.
class FaultRegistry {
 public:
  static FaultRegistry& global();

  /// Arms (or re-arms) one site. "never" disarms it.
  void arm(std::string_view site, std::string_view spec);
  /// Arms a comma-separated SITE=SPEC list ("a=always,b=every:3").
  /// Whitespace around entries is ignored; empty list is a no-op.
  void arm_from_list(std::string_view list);
  void disarm(std::string_view site);
  void disarm_all();

  /// Counts a hit at `site` and reports whether its trigger fires. Fires
  /// bump the site tally and the `fault.injected.<site>` obs counter.
  /// Unarmed sites return false (and still count hits once any site is
  /// armed — hit indices stay comparable across a chaos run).
  bool should_inject(std::string_view site);

  std::uint64_t hits(std::string_view site) const;
  std::uint64_t injected(std::string_view site) const;
  std::vector<std::string> armed_sites() const;

 private:
  struct Site {
    Trigger trigger;
    std::uint64_t hits = 0;
    std::uint64_t injected = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Site, std::less<>> sites_;
};

/// The injection point: true when `site` is armed and its trigger fires.
inline bool should_inject(std::string_view site) {
  if (!armed()) return false;
  return FaultRegistry::global().should_inject(site);
}

/// RAII arming of a SITE=SPEC list: arms on construction, disarms exactly
/// those sites on destruction. Prior specs for the same sites are not
/// restored — scoped arming is for one-shot runs, not nesting.
class ScopedArm {
 public:
  explicit ScopedArm(std::string_view list);
  ~ScopedArm();

  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;

 private:
  std::vector<std::string> armed_;
};

}  // namespace are::fault
