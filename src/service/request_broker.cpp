#include "service/request_broker.hpp"

#include <chrono>

#include "obs/telemetry.hpp"

namespace are::service {

namespace {

struct BrokerInstruments {
  obs::Gauge& inflight_requests;
  obs::Gauge& inflight_cost;
  obs::Gauge& queued_requests;
  obs::Counter& admitted;
  obs::Counter& queued;
  obs::Counter& rejected;

  static BrokerInstruments& get() {
    // Resolved once; instrument addresses are stable for the process life.
    static BrokerInstruments instruments{
        obs::TelemetryRegistry::global().gauge("service.inflight_requests"),
        obs::TelemetryRegistry::global().gauge("service.inflight_cost"),
        obs::TelemetryRegistry::global().gauge("service.queued_requests"),
        obs::TelemetryRegistry::global().counter("service.admitted"),
        obs::TelemetryRegistry::global().counter("service.queued"),
        obs::TelemetryRegistry::global().counter("service.rejected"),
    };
    return instruments;
  }
};

std::string format_cost(std::uint64_t cost) {
  return std::to_string(cost) + " estimated lookups";
}

}  // namespace

std::string_view to_string(AdmissionOutcome outcome) noexcept {
  return outcome == AdmissionOutcome::kAdmitted ? "admitted" : "rejected";
}

std::string_view to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kRequestCost:
      return "request-too-large";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

RequestBroker::RequestBroker(BrokerConfig config) : config_(config) {
  BrokerInstruments::get();  // pre-register the gauges so snapshots list them
  // The configured limits as gauges, so the scrape surface (and `are_cli
  // top`) can render load as inflight-vs-budget without knowing the config.
  obs::TelemetryRegistry::global()
      .gauge("service.inflight_cost_budget")
      .set(static_cast<std::int64_t>(config_.max_inflight_cost));
  obs::TelemetryRegistry::global()
      .gauge("service.queue_limit")
      .set(static_cast<std::int64_t>(config_.max_queued));
}

std::uint64_t RequestBroker::estimate_cost(const core::Portfolio& portfolio,
                                           const yet::YearEventTable& yet_table) noexcept {
  return static_cast<std::uint64_t>(portfolio.layers.size()) * yet_table.total_events();
}

std::uint64_t RequestBroker::estimate_replay_cost(const core::Portfolio& portfolio) noexcept {
  return static_cast<std::uint64_t>(portfolio.layers.size());
}

AdmissionDecision RequestBroker::admit(std::uint64_t estimated_cost) {
  auto& registry = obs::TelemetryRegistry::global();
  auto& instruments = BrokerInstruments::get();

  AdmissionDecision decision;
  decision.estimated_cost = estimated_cost;
  decision.pool_tasks = registry.counter("pool.tasks").value();
  decision.pool_idle_ns = registry.counter("pool.idle_ns").value();

  auto reject = [&](RejectReason reason, std::string message) {
    decision.outcome = AdmissionOutcome::kRejected;
    decision.reason = reason;
    decision.message = std::move(message);
    instruments.rejected.increment();
    return decision;
  };

  // A request that can never fit is rejected outright — queueing cannot help.
  if (config_.max_request_cost != 0 && estimated_cost > config_.max_request_cost) {
    decision.inflight_cost =
        static_cast<std::uint64_t>(instruments.inflight_cost.value());
    return reject(RejectReason::kRequestCost,
                  "request cost " + format_cost(estimated_cost) +
                      " exceeds max_request_cost " +
                      std::to_string(config_.max_request_cost));
  }
  if (config_.max_inflight_cost != 0 && estimated_cost > config_.max_inflight_cost) {
    decision.inflight_cost =
        static_cast<std::uint64_t>(instruments.inflight_cost.value());
    return reject(RejectReason::kRequestCost,
                  "request cost " + format_cost(estimated_cost) +
                      " can never fit under max_inflight_cost " +
                      std::to_string(config_.max_inflight_cost));
  }

  const auto wait_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);

  bool counted_as_queued = false;
  for (;;) {
    // Checked on entry AND after every wakeup: shutdown() notifies the cv,
    // and a waiter parked on capacity that will never free must leave with
    // a structured rejection, not hang the connection thread forever.
    if (shutting_down_) {
      if (counted_as_queued) {
        --waiting_;
        instruments.queued_requests.add(-1);
      }
      decision.inflight_cost =
          static_cast<std::uint64_t>(instruments.inflight_cost.value());
      return reject(RejectReason::kShuttingDown, "service is shutting down");
    }
    // Live load is read back from the registry gauges — the broker keeps no
    // separate tally, so exporters and admission always agree.
    const std::int64_t inflight_cost = instruments.inflight_cost.value();
    decision.inflight_cost = static_cast<std::uint64_t>(inflight_cost);

    if (config_.max_inflight_cost == 0 ||
        static_cast<std::uint64_t>(inflight_cost) + estimated_cost <=
            config_.max_inflight_cost) {
      break;
    }

    if (!counted_as_queued) {
      if (waiting_ >= config_.max_queued) {
        return reject(RejectReason::kQueueFull,
                      "wait queue full (" + std::to_string(waiting_) + "/" +
                          std::to_string(config_.max_queued) +
                          " queued, inflight cost " +
                          std::to_string(inflight_cost) + ")");
      }
      counted_as_queued = true;
      ++waiting_;
      instruments.queued_requests.add(1);
      instruments.queued.increment();
    }
    capacity_freed_.wait(lock);
  }

  if (counted_as_queued) {
    --waiting_;
    instruments.queued_requests.add(-1);
    decision.queue_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start)
            .count();
  }

  instruments.inflight_requests.add(1);
  instruments.inflight_cost.add(static_cast<std::int64_t>(estimated_cost));
  instruments.admitted.increment();
  decision.message = "admitted at inflight cost " +
                     std::to_string(decision.inflight_cost) + " + " +
                     format_cost(estimated_cost);
  return decision;
}

void RequestBroker::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  capacity_freed_.notify_all();
}

bool RequestBroker::shutting_down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutting_down_;
}

void RequestBroker::release(std::uint64_t estimated_cost) {
  auto& instruments = BrokerInstruments::get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    instruments.inflight_requests.add(-1);
    instruments.inflight_cost.add(-static_cast<std::int64_t>(estimated_cost));
  }
  capacity_freed_.notify_all();
}

}  // namespace are::service
