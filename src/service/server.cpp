#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <mutex>

#include "fault/fault_injection.hpp"
#include "io/csv.hpp"
#include "obs/export.hpp"
#include "service/access_log.hpp"

namespace are::service {

namespace {

/// Longest request line a connection buffers, newline excluded. A longer
/// line is answered invalid-argument (without echoing it) and its
/// connection closed, so no client can grow a buffer without bound.
constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

// ---- protocol parsing -----------------------------------------------------

/// key=value tokens after the verb. Values may not contain spaces (paths
/// with spaces are not supported by the protocol — documented limitation).
std::map<std::string, std::string> parse_fields(const std::string& line,
                                                std::string& verb) {
  std::istringstream in(line);
  in >> verb;
  std::map<std::string, std::string> fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("malformed token '" + token + "' (expected key=value)");
    }
    fields[token.substr(0, eq)] = token.substr(eq + 1);
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

bool parse_flag(const std::map<std::string, std::string>& fields, const char* key,
                bool fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  return it->second != "0" && it->second != "false";
}

// ---- JSON rendering ---------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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
      << ",\"resident_bytes\":" << decision.resident_bytes
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

// ---- socket plumbing --------------------------------------------------------

int make_listen_socket(const std::string& path) {
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen on " + path + ": " + reason);
  }
  return fd;
}

/// False when the peer went away. MSG_NOSIGNAL: a client that disconnects
/// before its responses are written must cost its own connection an EPIPE,
/// never the whole process a SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(AnalysisService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

std::string Server::handle_quote(const std::string& line) {
  std::string verb;
  const auto fields = parse_fields(line, verb);

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
  request.sharded = parse_flag(fields, "sharded", false);
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
  std::string verb;
  const auto fields = parse_fields(line, verb);
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
      // serve() drains in-flight quotes before joining.
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
  const int listen_fd = make_listen_socket(options_.socket_path);
  std::vector<std::thread> connections;
  // Open connection fds, so shutdown can unblock threads parked in read().
  std::mutex conns_mutex;
  std::vector<int> open_conns;
  while (!stop_requested()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    if (fault::should_inject(fault::sites::kServiceSocket)) {
      // Simulated accept-side failure (fd exhaustion, peer reset before
      // handshake): the connection is dropped, the accept loop lives on —
      // clients see a closed socket, never a dead server.
      ::close(conn);
      continue;
    }
    {
      std::lock_guard<std::mutex> guard(conns_mutex);
      open_conns.push_back(conn);
    }
    connections.emplace_back([this, conn, &conns_mutex, &open_conns] {
      std::string pending;
      std::size_t scanned = 0;  // bytes of `pending` already searched for '\n'
      char buf[4096];
      for (bool peer_open = true; peer_open;) {
        const ssize_t n = ::read(conn, buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t line_start = 0;
        std::size_t newline;
        while (peer_open && (newline = pending.find('\n', scanned)) != std::string::npos &&
               newline - line_start <= kMaxRequestLineBytes) {
          peer_open = write_all(
              conn, handle_line(pending.substr(line_start, newline - line_start)) + "\n");
          line_start = scanned = newline + 1;
        }
        pending.erase(0, line_start);
        scanned = pending.size();
        if (peer_open && pending.size() > kMaxRequestLineBytes) {
          write_all(conn, error_json({core::StatusCode::kInvalidArgument,
                                      "request line exceeds " +
                                          std::to_string(kMaxRequestLineBytes) + " bytes"}) +
                              "\n");
          break;
        }
        if (stop_requested()) break;
      }
      {
        std::lock_guard<std::mutex> guard(conns_mutex);
        open_conns.erase(std::find(open_conns.begin(), open_conns.end(), conn));
      }
      ::close(conn);
    });
  }
  // Shutdown drain. Order matters: wake broker queue waiters (their
  // connection threads answer with structured rejections), then half-close
  // every idle connection so threads parked in read() wake with EOF —
  // in-flight responses still flow out the write side — and only then
  // join. Before this, a client that kept its connection open hung the
  // join forever.
  service_.broker().shutdown();
  {
    std::lock_guard<std::mutex> guard(conns_mutex);
    for (const int conn : open_conns) ::shutdown(conn, SHUT_RD);
  }
  for (std::thread& connection : connections) connection.join();
  ::close(listen_fd);
  ::unlink(options_.socket_path.c_str());
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
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + socket_path + ": " + reason);
  }
  if (!write_all(fd, line + "\n")) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("send to " + socket_path + ": " + reason);
  }
  std::string response;
  char buf[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t newline = response.find('\n');
  if (newline == std::string::npos) {
    throw std::runtime_error("connection closed before a full response line");
  }
  return response.substr(0, newline);
}

}  // namespace are::service
