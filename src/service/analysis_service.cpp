#include "service/analysis_service.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/engine_registry.hpp"
#include "obs/metrics_server.hpp"
#include "obs/trace.hpp"
#include "service/access_log.hpp"

namespace are::service {

namespace {

/// The book's portfolio with the request's terms overrides applied. Returns
/// the book's own shared_ptr when there is nothing to override (the common
/// repricing loop allocates nothing).
std::shared_ptr<const core::Portfolio> effective_portfolio(
    const PortfolioSession::BookSnapshot& book, const QuoteRequest& request) {
  if (request.overrides.empty()) return book.portfolio;
  auto copy = std::make_shared<core::Portfolio>(*book.portfolio);
  for (const TermsOverride& override_ : request.overrides) {
    override_.terms.validate();
    bool found = false;
    for (core::Layer& layer : copy->layers) {
      if (layer.id != override_.layer_id) continue;
      layer.terms = override_.terms;
      found = true;
      break;
    }
    if (!found) {
      throw std::invalid_argument("terms override names unknown layer " +
                                  std::to_string(override_.layer_id));
    }
  }
  return copy;
}

/// The taxonomy code a broker rejection maps to on the wire. Retryability
/// follows: queue/shutdown pressure is transient, an oversized request is
/// the caller's to fix.
core::StatusCode status_code_of(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return core::StatusCode::kOk;
    case RejectReason::kRequestCost: return core::StatusCode::kInvalidArgument;
    case RejectReason::kQueueFull: return core::StatusCode::kResourceExhausted;
    case RejectReason::kShuttingDown: return core::StatusCode::kUnavailable;
  }
  return core::StatusCode::kInternal;
}

}  // namespace

std::string_view to_string(QuoteSource source) noexcept {
  switch (source) {
    case QuoteSource::kRejected:
      return "rejected";
    case QuoteSource::kCold:
      return "cold";
    case QuoteSource::kCached:
      return "cached";
    case QuoteSource::kDelta:
      return "delta";
    case QuoteSource::kFailed:
      return "failed";
  }
  return "unknown";
}

AnalysisService::AnalysisService(yet::YearEventTable yet_table, ServiceConfig config)
    : config_(std::move(config)),
      session_(std::move(yet_table), config_.session),
      broker_(config_.broker),
      cache_(config_.cache_entries) {
  core::EngineRegistry::global().require(config_.default_engine);
  config_.assumptions.validate();
  if (!config_.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(config_.access_log_path);
  }
  if (config_.metrics_port >= 0) {
    obs::MetricsServerOptions options;
    options.bind_address = config_.metrics_bind;
    options.port = config_.metrics_port;
    options.healthy = [this] { return !broker_.shutting_down(); };
    options.extra_status = [this] {
      return "{\"cached_results\":" + std::to_string(cache_.size()) +
             ",\"default_engine\":\"" + config_.default_engine + "\"}";
    };
    metrics_server_ = std::make_unique<obs::MetricsServer>(std::move(options));
    metrics_server_->start();
  }
}

AnalysisService::~AnalysisService() = default;

void AnalysisService::register_portfolio(std::string id, core::Portfolio portfolio) {
  cache_.invalidate(id);
  session_.register_portfolio(std::move(id), std::move(portfolio));
}

void AnalysisService::update_layer_terms(std::string_view id, std::uint32_t layer_id,
                                         const financial::LayerTerms& terms) {
  session_.update_layer_terms(id, layer_id, terms);
  cache_.invalidate(id);
}

std::uint64_t AnalysisService::fingerprint_of(std::string_view portfolio_id,
                                              std::uint64_t generation,
                                              const core::Portfolio& effective,
                                              std::string_view engine_name,
                                              const QuoteRequest& request) const {
  Fingerprint fp;
  fp.mix(portfolio_id).mix(generation).mix(engine_name);
  fp.mix(session_.yet_table().num_trials()).mix(session_.yet_table().total_events());
  fp.mix(request.window.has_value() ? 1u : 0u);
  if (request.window.has_value()) {
    fp.mix_double(request.window->from).mix_double(request.window->to);
  }
  for (const core::Layer& layer : effective.layers) {
    fp.mix(layer.id);
    fp.mix_double(layer.terms.occurrence_retention)
        .mix_double(layer.terms.occurrence_limit)
        .mix_double(layer.terms.aggregate_retention)
        .mix_double(layer.terms.aggregate_limit);
    fp.mix(layer.elts.size());
    for (const core::LayerElt& elt : layer.elts) {
      fp.mix_double(elt.terms.occurrence_retention)
          .mix_double(elt.terms.occurrence_limit)
          .mix_double(elt.terms.share)
          .mix_double(elt.terms.currency_rate);
    }
  }
  return fp.value();
}

QuoteResponse AnalysisService::quote(const QuoteRequest& request) {
  auto& registry = obs::TelemetryRegistry::global();
  const bool telemetry_on = obs::enabled();
  const obs::Snapshot before = telemetry_on ? registry.snapshot() : obs::Snapshot{};
  registry.counter("service.requests").increment();
  const auto wall_start = std::chrono::steady_clock::now();

  // The correlation key across the wire response, access log, and trace.
  std::string request_id;
  {
    char id[16];
    std::snprintf(id, sizeof id, "q-%06llu",
                  static_cast<unsigned long long>(
                      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1));
    request_id = id;
  }
  obs::Span quote_span("service.quote", "service",
                       obs::trace_enabled()
                           ? "{\"request_id\":\"" + request_id + "\",\"portfolio\":\"" +
                                 request.portfolio_id + "\"}"
                           : std::string{});

  if (request.window.has_value()) request.window->validate();
  const PortfolioSession::BookSnapshot book = session_.snapshot(request.portfolio_id);
  const std::shared_ptr<const core::Portfolio> portfolio =
      effective_portfolio(book, request);
  const std::string& engine_name =
      request.engine.empty() ? config_.default_engine : request.engine;
  const core::EngineDescriptor& descriptor = core::EngineRegistry::global().require(engine_name);

  QuoteResponse response;
  response.request_id = request_id;
  response.engine = engine_name;
  response.fingerprint =
      fingerprint_of(request.portfolio_id, book.generation, *portfolio, engine_name,
                     request);

  auto finish = [&](QuoteResponse&& done) {
    done.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    if (telemetry_on) done.telemetry = registry.snapshot().diff(before);
    // Per-source latency histogram. Updated unconditionally at request
    // granularity (the same discipline as the broker gauges — this is the
    // scrape surface's data, far off the per-event hot path the zero-cost
    // contract protects).
    const auto wall_ns = static_cast<std::uint64_t>(done.wall_seconds * 1e9);
    registry
        .histogram("service.quote_ns{source=" + std::string(to_string(done.source)) + "}")
        .record_ns(wall_ns);
    if (obs::trace_enabled()) {
      // Instant event carrying the request id: a slow quote found in the
      // access log is findable on the trace timeline by the same id.
      obs::TraceBuffer::global().append_instant(
          "service.quote.done", "service",
          "{\"request_id\":\"" + done.request_id + "\",\"source\":\"" +
              std::string(to_string(done.source)) + "\",\"wall_ns\":" +
              std::to_string(wall_ns) + "}");
    }
    if (access_log_ != nullptr) access_log_->write(make_log_entry(request, done));
    return std::move(done);
  };

  if (request.use_cache) {
    if (auto hit = cache_.get(response.fingerprint)) {
      registry.counter("service.cache_hits").increment();
      response.source = QuoteSource::kCached;
      response.admission.message = "served from result cache";
      response.outcome = std::move(hit);
      return finish(std::move(response));
    }
    registry.counter("service.cache_misses").increment();
  }

  // Delta decision BEFORE admission. Replay needs a ground-up cache
  // published at this structure generation (terms overrides and windows
  // never invalidate it); otherwise a cold run may claim the capture slot
  // and produce one. Resolved first because admission is delta-aware: a
  // replay performs zero ELT lookups, so it is charged
  // estimate_replay_cost (~0) instead of the full layers x events
  // estimate — re-pricing bursts against a warm book no longer consume
  // the inflight-cost budget cold runs are throttled by.
  const std::shared_ptr<const core::GroundUpLossCache> replay =
      request.use_delta ? book.ground_up : nullptr;

  const std::uint64_t cost =
      replay != nullptr ? RequestBroker::estimate_replay_cost(*portfolio)
                        : RequestBroker::estimate_cost(*portfolio, session_.yet_table());
  response.admission = broker_.admit(cost);
  if (!response.admission.admitted()) {
    response.source = QuoteSource::kRejected;
    response.status = {status_code_of(response.admission.reason),
                       response.admission.message};
    return finish(std::move(response));
  }

  std::shared_ptr<core::GroundUpLossCache> capture;
  if (request.use_delta && replay == nullptr) {
    const std::size_t bytes = core::GroundUpLossCache::estimate_bytes(
        portfolio->layers.size(), session_.yet_table().total_events());
    if (session_.try_claim_capture(request.portfolio_id, book.structure_generation,
                                   bytes)) {
      capture = std::make_shared<core::GroundUpLossCache>(
          portfolio->layers.size(), session_.yet_table().total_events());
    }
  }

  core::AnalysisConfig config;
  config.engine = descriptor.kind;
  config.engine_name = engine_name;
  config.num_threads = config_.session.num_threads;
  config.window = request.window;
  if (descriptor.supports_pool_reuse) config.pool = &session_.pool();
  config.ground_up_replay = replay.get();
  config.ground_up_capture = capture.get();

  // Per-request deadline: the kernel polls the token between trial blocks,
  // so an expired quote stops within one block of the deadline.
  core::CancelToken deadline;
  if (request.deadline_ms != 0) {
    deadline.set_deadline_after(std::chrono::milliseconds(request.deadline_ms));
    config.cancel = &deadline;
  }

  auto outcome = std::make_shared<QuoteOutcome>();
  try {
    outcome->ylt = core::run({*portfolio, session_.yet_table(), config});
  } catch (const std::invalid_argument&) {
    // Malformed request: the documented throwing path (nothing ran).
    broker_.release(cost);
    if (capture != nullptr) session_.abandon_capture(request.portfolio_id);
    throw;
  } catch (...) {
    // Execution failure — the hardened path. Unwind EVERYTHING the quote
    // acquired (admitted cost, the claimed capture slot) and convert to a
    // structured kFailed response: the server connection lives on, the next
    // quote starts from a clean slate, and bit-identity is unaffected
    // because nothing partial is published or cached. The quote was
    // admitted, so its admission decision stays as the broker made it.
    broker_.release(cost);
    if (capture != nullptr) session_.abandon_capture(request.portfolio_id);
    response.source = QuoteSource::kFailed;
    response.status = core::status_from_current_exception();
    registry.counter("service.failed").increment();
    return finish(std::move(response));
  }
  broker_.release(cost);
  if (capture != nullptr) {
    session_.publish_ground_up(request.portfolio_id, book.structure_generation,
                               std::move(capture));
  }

  outcome->quotes.reserve(portfolio->layers.size());
  for (std::size_t i = 0; i < portfolio->layers.size(); ++i) {
    outcome->quotes.push_back(pricing::price_layer(
        outcome->ylt.layer_losses(i), portfolio->layers[i].terms, config_.assumptions));
  }

  response.source = replay != nullptr ? QuoteSource::kDelta : QuoteSource::kCold;
  registry
      .counter(replay != nullptr ? "service.delta_runs" : "service.cold_runs")
      .increment();
  response.outcome = outcome;
  if (request.use_cache) {
    cache_.put(response.fingerprint, request.portfolio_id, outcome);
  }
  return finish(std::move(response));
}

}  // namespace are::service
