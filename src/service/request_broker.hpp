#pragma once

// Cost-aware admission control for the resident analysis service.
//
// The broker's live state *is* the obs telemetry registry — no bespoke
// bookkeeping: in-flight load lives in the `service.inflight_requests` /
// `service.inflight_cost` / `service.queued_requests` gauges (updated
// unconditionally: they are the admission state store, not optional
// reporting; broker operations are request-granularity, far off the
// per-event hot path the zero-cost contract protects), and the pool load
// counters (`pool.tasks`, `pool.idle_ns`) are sampled into every decision.
// The same numbers are therefore visible to every exporter (Prometheus
// scrape included) with no extra plumbing.
//
// A request's cost estimate is its ELT lookup count — layers x YET event
// occurrences, the paper's ~78%-of-runtime driver (Fig 6b) and the quantity
// the engines' wall time is linear in.

#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>

#include "core/layer.hpp"
#include "yet/year_event_table.hpp"

namespace are::service {

struct BrokerConfig {
  /// Largest single request, in estimated lookups; 0 = unlimited.
  std::uint64_t max_request_cost = 0;
  /// Total estimated lookups allowed in flight at once; 0 = unlimited.
  /// A request that would exceed it queues until running work releases.
  std::uint64_t max_inflight_cost = 0;
  /// Requests allowed to wait for capacity before kQueueFull rejections.
  std::size_t max_queued = 16;
};

enum class AdmissionOutcome { kAdmitted, kRejected };

enum class RejectReason {
  kNone,           ///< admitted
  kRequestCost,    ///< the request alone exceeds a cost budget; retrying cannot help
  kQueueFull,      ///< capacity exists but the wait queue is at max_queued
  kShuttingDown,   ///< the service is draining; queued waiters are woken with this
};

std::string_view to_string(AdmissionOutcome outcome) noexcept;
std::string_view to_string(RejectReason reason) noexcept;

/// The structured admission decision: machine-readable outcome/reason plus
/// the registry readings it was based on and a human sentence.
struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  RejectReason reason = RejectReason::kNone;
  std::uint64_t estimated_cost = 0;
  /// service.inflight_cost at decision time (before this request joined).
  std::uint64_t inflight_cost = 0;
  /// pool.tasks / pool.idle_ns readings at decision time (load context).
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_idle_ns = 0;
  /// Time spent queued waiting for capacity (0 for immediate decisions).
  double queue_wait_seconds = 0.0;
  std::string message;

  bool admitted() const noexcept { return outcome == AdmissionOutcome::kAdmitted; }
};

class RequestBroker {
 public:
  explicit RequestBroker(BrokerConfig config = {});

  /// A request's estimated cost: layers x YET event occurrences (the ELT
  /// lookup count of one full run).
  static std::uint64_t estimate_cost(const core::Portfolio& portfolio,
                                     const yet::YearEventTable& yet_table) noexcept;

  /// Cost of a delta-replay request: ~0. A replay performs ZERO ELT
  /// lookups (it reads the captured ground-up buffer and runs only the
  /// occurrence/aggregate sweep, ~22% of a cold run's time and none of its
  /// lookup cost), so charging it the full estimate_cost would make the
  /// broker reject or queue exactly the quotes the delta path makes cheap.
  /// One unit per layer keeps the pairing visible in the inflight gauges
  /// without consuming meaningful budget.
  static std::uint64_t estimate_replay_cost(const core::Portfolio& portfolio) noexcept;

  /// Admits, queues (blocking until capacity frees), or rejects. Every
  /// admitted call must be paired with release(same cost), even on engine
  /// failure.
  AdmissionDecision admit(std::uint64_t estimated_cost);

  void release(std::uint64_t estimated_cost);

  /// Begins shutdown: every queued waiter wakes and is rejected with
  /// kShuttingDown, and every later admit() rejects immediately. In-flight
  /// (already admitted) work is untouched — the caller drains it by pairing
  /// the outstanding release() calls as usual. Idempotent.
  void shutdown();
  bool shutting_down() const;

  const BrokerConfig& config() const noexcept { return config_; }

 private:
  BrokerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable capacity_freed_;
  std::size_t waiting_ = 0;  // guarded by mutex_; mirrored in the queued gauge
  bool shutting_down_ = false;  // guarded by mutex_
};

}  // namespace are::service
