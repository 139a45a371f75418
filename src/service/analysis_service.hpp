#pragma once

// The resident analysis service: PortfolioSession (resident YET + pool +
// books) + RequestBroker (cost-aware admission off the telemetry registry)
// + ResultCache (fingerprint-keyed quotes) + the delta executor (ground-up
// loss capture/replay through the trial kernel), composed behind one
// quote() call. This is what `are_cli serve` hosts; tests drive it
// in-process.
//
// A quote resolves in one of four ways, in order:
//
//   cached — the fingerprint (portfolio id + generation, effective terms,
//            engine, trial count, window, sharded flag) hits the result
//            cache: no admission, no engine, the shared outcome is returned
//            as-is. Bit-identical to the run that populated it by identity.
//   rejected — the broker refuses admission (structured reason: request
//            too large, queue full, memory pressure); outcome is null.
//   delta  — the book has published ground-up losses and the request only
//            varies layer terms / window / trial aggregation: the kernel
//            replays the cached combined losses, skipping the fetch +
//            lookup + per-ELT financial phases entirely (zero elt.*.lookups
//            by construction) and re-running occurrence terms and the
//            aggregate recurrence. Bit-identical to a cold run.
//   cold   — full execution; opportunistically captures ground-up losses
//            (claim/publish protocol, budget-gated) so the *next* terms
//            tweak is a delta.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"
#include "core/status.hpp"
#include "obs/telemetry.hpp"
#include "pricing/pricing.hpp"
#include "service/portfolio_session.hpp"
#include "service/request_broker.hpp"
#include "service/result_cache.hpp"

namespace are::obs {
class MetricsServer;
}  // namespace are::obs

namespace are::service {

class AccessLog;

struct ServiceConfig {
  SessionConfig session;
  BrokerConfig broker;
  std::size_t cache_entries = 64;
  pricing::PricingAssumptions assumptions;
  /// Registry name used when a request does not name an engine.
  std::string default_engine = "fused";
  /// Sharded-output knobs for quotes with QuoteRequest::sharded (shard
  /// size, spill dir, memory budget). The tiny-budget + spill-dir
  /// combination is how a server is driven into the out-of-core regime.
  core::ShardingOptions sharding;
  /// TCP port for the embedded scrape endpoint (obs::MetricsServer:
  /// /metrics, /healthz, /statusz). -1 = no server (the default); 0 =
  /// ephemeral port, read back via metrics_server()->port().
  int metrics_port = -1;
  std::string metrics_bind = "127.0.0.1";
  /// Append-only JSONL access log (one line per quote); empty = off.
  /// The constructor throws std::runtime_error when the path cannot be
  /// opened.
  std::string access_log_path;
};

/// Per-request replacement of one layer's terms, applied on top of the
/// registered book without mutating it — the what-if probe of a pricing
/// session. Layer terms sit after the ground-up combine stage, so an
/// override never invalidates the delta fast path.
struct TermsOverride {
  std::uint32_t layer_id = 0;
  financial::LayerTerms terms;
};

struct QuoteRequest {
  std::string portfolio_id;
  std::vector<TermsOverride> overrides;
  /// Engine registry name; empty = ServiceConfig::default_engine.
  std::string engine;
  std::optional<core::CoverageWindow> window;
  /// false bypasses the result cache (lookup and insert) — forces execution.
  bool use_cache = true;
  /// false forbids ground-up replay *and* capture — forces the cold path.
  bool use_delta = true;
  /// Wall-clock budget for this quote in milliseconds; 0 = none. The kernel
  /// checks the deadline between trial blocks, so an expired quote stops
  /// within one block and fails with status kDeadlineExceeded — admitted
  /// broker cost released, no partial state, nothing cached.
  std::uint64_t deadline_ms = 0;
  /// Execute through the sharded out-of-core path (shard::run_sharded with
  /// ServiceConfig::sharding) and materialize the result. Output bytes are
  /// identical to the default path; what changes is the failure surface —
  /// a spill failure under memory pressure fails THIS quote with
  /// kSpillFailure instead of crashing the process.
  bool sharded = false;
};

enum class QuoteSource { kRejected, kCold, kCached, kDelta, kFailed };
std::string_view to_string(QuoteSource source) noexcept;

struct QuoteResponse {
  /// Service-assigned id ("q-000001", unique per service instance) — the
  /// correlation key across the wire response, the access log, and the
  /// trace (instant event + span args). Assigned before anything can
  /// fail, so every response carries one.
  std::string request_id;
  QuoteSource source = QuoteSource::kRejected;
  /// kOk for served quotes; the taxonomy code + message otherwise (both
  /// rejections and kFailed executions). This is the ONE failure channel
  /// crossing the service boundary — quote() throws only on malformed
  /// requests (std::invalid_argument), never on execution failure.
  core::Status status;
  AdmissionDecision admission;
  /// Null exactly when rejected. Shared with the cache: hits alias the
  /// original outcome.
  std::shared_ptr<const QuoteOutcome> outcome;
  std::uint64_t fingerprint = 0;
  std::string engine;
  double wall_seconds = 0.0;
  /// Registry change over this request (Snapshot::diff of before/after),
  /// present when telemetry collection is enabled. Exact per-request
  /// attribution only without overlapping requests — the registry is
  /// process-global.
  std::optional<obs::Snapshot> telemetry;
};

class AnalysisService {
 public:
  /// Starts the embedded metrics server and opens the access log when the
  /// config asks for them (throws std::runtime_error when either cannot
  /// bind/open — fail at startup, not on the first quote).
  AnalysisService(yet::YearEventTable yet_table, ServiceConfig config = {});
  ~AnalysisService();

  /// Registers/replaces a book and drops its cached quotes.
  void register_portfolio(std::string id, core::Portfolio portfolio);

  /// Durable terms-only mutation of the book itself (vs. the per-request
  /// QuoteRequest::overrides). Drops the book's cached quotes; keeps its
  /// ground-up losses (see PortfolioSession::update_layer_terms).
  void update_layer_terms(std::string_view id, std::uint32_t layer_id,
                          const financial::LayerTerms& terms);

  /// The front door. Throws std::invalid_argument on malformed requests
  /// (unknown portfolio/layer/engine, bad window); admission refusals are
  /// returned as kRejected responses and execution failures (deadline,
  /// cancellation, spill, corruption, allocation) as kFailed responses
  /// carrying a structured core::Status — never exceptions.
  QuoteResponse quote(const QuoteRequest& request);

  PortfolioSession& session() noexcept { return session_; }
  RequestBroker& broker() noexcept { return broker_; }
  ResultCache& cache() noexcept { return cache_; }
  const ServiceConfig& config() const noexcept { return config_; }

  /// Null unless ServiceConfig::metrics_port >= 0.
  obs::MetricsServer* metrics_server() noexcept { return metrics_server_.get(); }
  /// Null unless ServiceConfig::access_log_path is set.
  AccessLog* access_log() noexcept { return access_log_.get(); }

 private:
  std::uint64_t fingerprint_of(std::string_view portfolio_id, std::uint64_t generation,
                               const core::Portfolio& effective,
                               std::string_view engine_name,
                               const QuoteRequest& request) const;

  ServiceConfig config_;
  PortfolioSession session_;
  RequestBroker broker_;
  ResultCache cache_;
  std::atomic<std::uint64_t> next_request_id_{0};
  std::unique_ptr<obs::MetricsServer> metrics_server_;
  std::unique_ptr<AccessLog> access_log_;
};

}  // namespace are::service
