#include "service/server.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "fault/fault_injection.hpp"
#include "io/csv.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "service/access_log.hpp"

namespace are::service {

namespace {

/// Longest request line a connection buffers, newline excluded. A longer
/// line is answered invalid-argument (without echoing it) and its
/// connection closed, so no client can grow a buffer without bound.
constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

// ---- protocol parsing -----------------------------------------------------

/// The keys each verb reads, and so the only keys it accepts.
constexpr std::array<std::string_view, 12> kQuoteKeys = {
    "portfolio", "layer",  "occ-retention", "occ-limit", "agg-retention", "agg-limit",
    "engine",    "window", "cache",         "delta",     "csv",           "deadline-ms"};
constexpr std::array<std::string_view, 6> kUpdateKeys = {
    "portfolio", "layer", "occ-retention", "occ-limit", "agg-retention", "agg-limit"};

/// key=value tokens after the verb. A key the verb does not read, or one
/// given twice, is invalid-argument: a misspelt term must never quote the
/// book's own terms. Values may not contain spaces (paths with spaces are
/// not supported by the protocol — documented limitation).
std::map<std::string, std::string> parse_fields(const std::string& line,
                                                std::span<const std::string_view> keys) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  std::map<std::string, std::string> fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("malformed token '" + token + "' (expected key=value)");
    }
    std::string key = token.substr(0, eq);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      throw std::invalid_argument(verb + " has no field '" + key + "'");
    }
    if (!fields.emplace(key, token.substr(eq + 1)).second) {
      throw std::invalid_argument("field " + key + " given twice");
    }
  }
  return fields;
}

double parse_amount(const std::string& value, const std::string& key) {
  if (value == "inf" || value == "unlimited") return financial::kUnlimited;
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != value.size()) {
    throw std::invalid_argument("field " + key + ": cannot parse amount '" + value + "'");
  }
  return parsed;
}

/// Unsigned integer field, consumed whole: no sign, no trailing text, no
/// wrap-around (`deadline-ms=-1` must not become 2^64-1).
template <typename Unsigned>
Unsigned parse_unsigned(const std::string& value, const std::string& key) {
  Unsigned parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc{} || stop != end) {
    throw std::invalid_argument("field " + key + ": expected a non-negative integer, got '" +
                                value + "'");
  }
  return parsed;
}

/// Builds the terms override from whichever of the four term keys are
/// present, starting from the layer's current terms so a single-knob tweak
/// (the common what-if) does not reset the others.
bool parse_terms_fields(const std::map<std::string, std::string>& fields,
                        financial::LayerTerms& terms) {
  bool any = false;
  auto take = [&](const char* key, double& out) {
    auto it = fields.find(key);
    if (it == fields.end()) return;
    out = parse_amount(it->second, key);
    any = true;
  };
  take("occ-retention", terms.occurrence_retention);
  take("occ-limit", terms.occurrence_limit);
  take("agg-retention", terms.aggregate_retention);
  take("agg-limit", terms.aggregate_limit);
  return any;
}

std::uint32_t parse_layer_id(const std::map<std::string, std::string>& fields) {
  auto it = fields.find("layer");
  if (it == fields.end()) return 1;  // are_cli-built books have a single layer id 1
  return parse_unsigned<std::uint32_t>(it->second, "layer");
}

bool parse_flag(const std::map<std::string, std::string>& fields, const std::string& key,
                bool fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second == "1" || it->second == "true") return true;
  if (it->second == "0" || it->second == "false") return false;
  throw std::invalid_argument("field " + key + ": expected 0, 1, false or true, got '" +
                              it->second + "'");
}

// ---- JSON rendering ---------------------------------------------------------

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Protocol-level failure: status "error" plus the taxonomy code +
/// retryability, so `are_cli quote --retries` and chaos CI match on
/// structure, never on message text.
std::string error_json(const core::Status& status) {
  return "{\"status\":\"error\",\"code\":\"" + std::string(core::to_string(status.code())) +
         "\",\"retryable\":" + (status.retryable() ? "true" : "false") +
         ",\"message\":\"" + json_escape(status.message()) + "\"}";
}

std::string admission_json(const AdmissionDecision& decision) {
  std::ostringstream out;
  out << "{\"outcome\":\"" << to_string(decision.outcome) << "\""
      << ",\"reason\":\"" << to_string(decision.reason) << "\""
      << ",\"estimated_cost\":" << decision.estimated_cost
      << ",\"inflight_cost\":" << decision.inflight_cost
      << ",\"pool_tasks\":" << decision.pool_tasks
      << ",\"pool_idle_ns\":" << decision.pool_idle_ns
      << ",\"queue_wait_seconds\":" << json_double(decision.queue_wait_seconds)
      << ",\"message\":\"" << json_escape(decision.message) << "\"}";
  return out.str();
}

std::string response_json(const QuoteResponse& response) {
  // Three statuses on the wire: "ok" (quote served; bit-identity applies),
  // "rejected" (admission refused), "error" (admitted but execution
  // failed). The non-ok forms always carry code/retryable/message from the
  // structured core::Status.
  const bool rejected = response.source == QuoteSource::kRejected;
  const bool failed = response.source == QuoteSource::kFailed;
  std::ostringstream out;
  out << "{\"status\":\"" << (rejected ? "rejected" : failed ? "error" : "ok") << "\""
      << ",\"request_id\":\"" << json_escape(response.request_id) << "\"";
  if (!response.status.ok()) {
    out << ",\"code\":\"" << core::to_string(response.status.code()) << "\""
        << ",\"retryable\":" << (response.status.retryable() ? "true" : "false")
        << ",\"message\":\"" << json_escape(response.status.message()) << "\"";
  }
  out << ",\"source\":\"" << to_string(response.source) << "\""
      << ",\"engine\":\"" << json_escape(response.engine) << "\"";
  {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(response.fingerprint));
    out << ",\"fingerprint\":\"" << fp << "\"";
  }
  out << ",\"wall_seconds\":" << json_double(response.wall_seconds)
      << ",\"admission\":" << admission_json(response.admission);
  if (response.outcome != nullptr) {
    out << ",\"trials\":" << response.outcome->ylt.num_trials() << ",\"quotes\":[";
    const auto layer_ids = response.outcome->ylt.layer_ids();
    for (std::size_t i = 0; i < response.outcome->quotes.size(); ++i) {
      const pricing::Quote& quote = response.outcome->quotes[i];
      if (i != 0) out << ',';
      out << "{\"layer\":" << (i < layer_ids.size() ? layer_ids[i] : 0)
          << ",\"expected_loss\":" << json_double(quote.expected_loss)
          << ",\"stddev\":" << json_double(quote.stddev)
          << ",\"tvar\":" << json_double(quote.tvar)
          << ",\"technical_premium\":" << json_double(quote.technical_premium)
          << ",\"rate_on_line\":" << json_double(quote.rate_on_line) << "}";
    }
    out << ']';
  }
  if (response.telemetry.has_value()) {
    out << ",\"telemetry\":" << obs::snapshot_json_object(*response.telemetry);
  }
  out << '}';
  return out.str();
}

}  // namespace

Server::Server(AnalysisService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

std::string Server::handle_quote(const std::string& line) {
  const auto fields = parse_fields(line, kQuoteKeys);

  QuoteRequest request;
  const auto portfolio = fields.find("portfolio");
  if (portfolio == fields.end()) {
    throw std::invalid_argument("QUOTE requires portfolio=<id>");
  }
  request.portfolio_id = portfolio->second;

  const std::uint32_t layer_id = parse_layer_id(fields);
  {
    // Start the override from the book's current terms so one-knob tweaks
    // keep the rest (snapshot() throws on unknown portfolio — wanted here).
    const auto book = service_.session().snapshot(request.portfolio_id);
    financial::LayerTerms terms;
    bool layer_known = false;
    for (const core::Layer& layer : book.portfolio->layers) {
      if (layer.id != layer_id) continue;
      terms = layer.terms;
      layer_known = true;
      break;
    }
    if (parse_terms_fields(fields, terms)) {
      if (!layer_known) {
        throw std::invalid_argument("terms override names unknown layer " +
                                    std::to_string(layer_id));
      }
      request.overrides.push_back({layer_id, terms});
    }
  }

  if (const auto it = fields.find("engine"); it != fields.end()) {
    request.engine = it->second;
  }
  if (const auto it = fields.find("window"); it != fields.end()) {
    request.window = core::CoverageWindow::parse(it->second);
  }
  request.use_cache = parse_flag(fields, "cache", true);
  request.use_delta = parse_flag(fields, "delta", true);
  if (const auto it = fields.find("deadline-ms"); it != fields.end()) {
    request.deadline_ms = parse_unsigned<std::uint64_t>(it->second, "deadline-ms");
  }

  const QuoteResponse response = service_.quote(request);

  if (const auto it = fields.find("csv");
      it != fields.end() && response.outcome != nullptr) {
    std::ofstream out(it->second);
    if (!out) throw std::runtime_error("cannot open csv path " + it->second);
    io::write_ylt_csv(out, response.outcome->ylt);
  }

  if (options_.verbose) {
    // Same RequestLogEntry the access log serializes — the two surfaces
    // render one extraction and cannot drift apart.
    std::cerr << access_log_human(make_log_entry(request, response)) << '\n';
  }
  return response_json(response);
}

std::string Server::handle_update(const std::string& line) {
  const auto fields = parse_fields(line, kUpdateKeys);
  const auto portfolio = fields.find("portfolio");
  if (portfolio == fields.end()) {
    throw std::invalid_argument("UPDATE requires portfolio=<id>");
  }
  const std::uint32_t layer_id = parse_layer_id(fields);
  const auto book = service_.session().snapshot(portfolio->second);
  financial::LayerTerms terms;
  bool layer_known = false;
  for (const core::Layer& layer : book.portfolio->layers) {
    if (layer.id != layer_id) continue;
    terms = layer.terms;
    layer_known = true;
    break;
  }
  if (!layer_known) {
    throw std::invalid_argument("UPDATE names unknown layer " + std::to_string(layer_id));
  }
  if (!parse_terms_fields(fields, terms)) {
    throw std::invalid_argument("UPDATE requires at least one terms field");
  }
  service_.update_layer_terms(portfolio->second, layer_id, terms);
  if (options_.verbose) {
    std::cerr << "[serve] updated " << portfolio->second << " layer " << layer_id << '\n';
  }
  return "{\"status\":\"ok\",\"updated\":\"" + json_escape(portfolio->second) + "\"}";
}

std::string Server::handle_line(const std::string& line) {
  try {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) {
      return error_json({core::StatusCode::kInvalidArgument, "empty request"});
    }
    if (verb == "PING") return "{\"status\":\"ok\",\"pong\":true}";
    if (verb == "SHUTDOWN") {
      // Wake broker queue waiters first (they answer their clients with a
      // structured shutting-down rejection), then stop the accept loop;
      // serve() drains in-flight quotes before it returns.
      service_.broker().shutdown();
      request_stop();
      return "{\"status\":\"ok\",\"shutdown\":true}";
    }
    if (verb == "QUOTE") return handle_quote(line);
    if (verb == "UPDATE") return handle_update(line);
    return error_json({core::StatusCode::kInvalidArgument, "unknown verb '" + verb + "'"});
  } catch (...) {
    // Malformed requests throw std::invalid_argument (invalid-argument on
    // the wire); only an unclassified failure is reported as internal.
    return error_json(core::status_from_current_exception());
  }
}

int Server::serve() {
  {
    net::Listener listener(
        {.path = options_.socket_path},
        error_json({core::StatusCode::kResourceExhausted, "too many connections"}) + "\n",
        [this](int fd) {
          // Simulated accept-side failure: the connection closes unread.
          if (fault::should_inject(fault::sites::kServiceSocket)) return;
          std::string pending, line;
          net::Line read;
          while ((read = net::next_line(fd, pending, line, kMaxRequestLineBytes)) ==
                     net::Line::kRead &&
                 net::write_all(fd, handle_line(line) + "\n")) {
          }
          if (read == net::Line::kOversize) {
            net::write_all(fd, error_json({core::StatusCode::kInvalidArgument,
                                          "request line exceeds " +
                                              std::to_string(kMaxRequestLineBytes) + " bytes"}) +
                                  "\n");
          }
        });
    listener.accept_until(stop_);
    // Shutdown drain, in this order: wake broker queue waiters (they answer
    // with structured rejections), then ~Listener half-closes and waits.
    service_.broker().shutdown();
  }
  if (options_.verbose) {
    // Lifetime summary, with the fault-injection fire tallies so a chaos
    // run's stderr says exactly what was provoked.
    const obs::Snapshot snapshot = obs::TelemetryRegistry::global().snapshot();
    std::ostringstream note;
    note << "[serve] shutdown requests=" << snapshot.counter_value("service.requests")
         << " cold=" << snapshot.counter_value("service.cold_runs")
         << " delta=" << snapshot.counter_value("service.delta_runs")
         << " cached=" << snapshot.counter_value("service.cache_hits")
         << " rejected=" << snapshot.counter_value("service.rejected")
         << " failed=" << snapshot.counter_value("service.failed");
    for (const auto& counter : snapshot.counters) {
      if (counter.value != 0 && counter.name.rfind("fault.injected.", 0) == 0) {
        note << " " << counter.name << "=" << counter.value;
      }
    }
    std::cerr << note.str() << '\n';
  }
  return 0;
}

std::string Server::round_trip(const std::string& socket_path, const std::string& line) {
  const std::string response = net::exchange({.path = socket_path}, line + "\n", true);
  const std::size_t newline = response.find('\n');
  if (newline == std::string::npos) {
    throw std::runtime_error("connection closed before a full response line");
  }
  return response.substr(0, newline);
}

}  // namespace are::service
