#include "obs/metrics_server.hpp"

#include <sstream>
#include <stdexcept>

#include "fault/fault_injection.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "simd/dispatch.hpp"

namespace are::obs {

namespace {

std::string http_response(int status, const char* reason, const char* content_type,
                          const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << " " << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

}  // namespace

MetricsServer::MetricsServer(MetricsServerOptions options) : options_(std::move(options)) {}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::start() {
  if (running()) return;
  listener_.emplace(
      net::Address{.host = options_.bind_address, .port = options_.port},
      http_response(503, "Service Unavailable", "text/plain", "too many connections\n"),
      [this](int fd) {
        // One request per connection: its request line, capped at 16 KiB, is
        // all this server reads (on EOF or past the cap it stays empty: 405).
        std::string pending, line, method, path;
        net::next_line(fd, pending, line, 16 * 1024);
        std::istringstream(line) >> method >> path;
        net::write_all(fd, method == "GET" ? handle_path(path)
                                          : http_response(405, "Method Not Allowed", "text/plain",
                                                          "only GET is supported\n"));
      });
  started_at_ = std::chrono::steady_clock::now();
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { listener_->accept_until(stop_); });
}

void MetricsServer::stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  listener_.reset();
}

std::string MetricsServer::handle_path(const std::string& path) const {
  const double uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_).count();

  if (path == "/metrics") {
    std::ostringstream body;
    write_snapshot_prometheus(body, TelemetryRegistry::global().snapshot());
    body << "# TYPE are_uptime_seconds gauge\n";
    body << "are_uptime_seconds " << uptime_seconds << "\n";
    return http_response(200, "OK", "text/plain; version=0.0.4", body.str());
  }

  if (path == "/healthz") {
    const bool healthy = options_.healthy == nullptr || options_.healthy();
    if (healthy) return http_response(200, "OK", "text/plain", "ok\n");
    return http_response(503, "Service Unavailable", "text/plain", "shutting-down\n");
  }

  if (path == "/statusz") {
    const Snapshot snapshot = TelemetryRegistry::global().snapshot();
    std::ostringstream body;
    body << "{\"build\":{\"compiler\":\"" <<
#if defined(__VERSION__)
        __VERSION__
#else
        "unknown"
#endif
        << "\",\"arch\":\"" <<
#if defined(__x86_64__)
        "x86_64"
#elif defined(__aarch64__)
        "aarch64"
#else
        "unknown"
#endif
        << "\"}";
    // Runtime SIMD dispatch facts: what this host's cpuid reports, which
    // kernel TUs the binary carries, and the extension kAuto executes —
    // the fleet-debugging answer to "is this box actually running AVX2?".
    body << ",\"simd\":{\"detected\":\"" << simd::describe_mask(simd::detected_extensions())
         << "\",\"compiled\":\"" << simd::describe_mask(simd::compiled_extensions())
         << "\",\"best\":\"" << simd::name_of(simd::best_extension())
         << "\",\"reason\":\"" << simd::best_extension_reason() << "\"}";
    body << ",\"uptime_seconds\":" << uptime_seconds;
    body << ",\"gauges\":{";
    for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
      if (i != 0) body << ",";
      body << "\"" << snapshot.gauges[i].name << "\":" << snapshot.gauges[i].value;
    }
    body << "}";
    // Per-source quote counts — the service counters by their stable names
    // (all zero for a non-service embedder; harmless).
    body << ",\"quotes\":{\"requests\":" << snapshot.counter_value("service.requests")
         << ",\"cold\":" << snapshot.counter_value("service.cold_runs")
         << ",\"delta\":" << snapshot.counter_value("service.delta_runs")
         << ",\"cached\":" << snapshot.counter_value("service.cache_hits")
         << ",\"rejected\":" << snapshot.counter_value("service.rejected")
         << ",\"failed\":" << snapshot.counter_value("service.failed") << "}";
    body << ",\"armed_fault_sites\":[";
    const auto sites = fault::FaultRegistry::global().armed_sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i != 0) body << ",";
      body << "\"" << sites[i] << "\"";
    }
    body << "]";
    if (options_.extra_status != nullptr) {
      const std::string extra = options_.extra_status();
      if (!extra.empty()) body << ",\"embedder\":" << extra;
    }
    body << "}\n";
    return http_response(200, "OK", "application/json", body.str());
  }

  return http_response(404, "Not Found", "text/plain",
                       "unknown path (try /metrics, /healthz, /statusz)\n");
}

std::string http_get(const std::string& host, int port, const std::string& path) {
  const std::string response = net::exchange(
      {.host = host, .port = port},
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n", false);
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw std::runtime_error("http_get: malformed response from " + host + path);
  }
  std::istringstream head(response.substr(0, head_end));
  std::string http_version;
  int status = 0;
  head >> http_version >> status;
  if (status != 200) {
    throw std::runtime_error("http_get: " + host + path + " returned status " +
                             std::to_string(status));
  }
  return response.substr(head_end + 4);
}

}  // namespace are::obs
