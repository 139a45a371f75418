#include "obs/metrics_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "fault/fault_injection.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "simd/dispatch.hpp"

namespace are::obs {

namespace {

/// MSG_NOSIGNAL: a scraper that disconnects mid-response costs its own
/// connection an EPIPE, never the serving process a SIGPIPE.
void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // scraper went away mid-response; nothing sensible to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

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

sockaddr_in make_addr(const std::string& address, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("metrics server: bad bind address '" + address + "'");
  }
  return addr;
}

}  // namespace

MetricsServer::MetricsServer(MetricsServerOptions options) : options_(std::move(options)) {}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::start() {
  if (running()) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("metrics server: socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(options_.bind_address, options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("metrics server: bind/listen on " + options_.bind_address + ":" +
                             std::to_string(options_.port) + ": " + reason);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("metrics server: getsockname(): " + reason);
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  listen_fd_ = fd;
  started_at_ = std::chrono::steady_clock::now();
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { accept_loop(); });
}

void MetricsServer::stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Read until the end of the request head (or a sane cap — the only
    // requests this server understands fit in one line).
    std::string request;
    char buf[2048];
    while (request.find("\r\n\r\n") == std::string::npos && request.size() < 16 * 1024) {
      const ssize_t n = ::read(conn, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
      if (request.find('\n') != std::string::npos) break;  // request line is enough
    }
    std::istringstream head(request);
    std::string method, path;
    head >> method >> path;
    if (method != "GET") {
      write_all(conn, http_response(405, "Method Not Allowed", "text/plain",
                                    "only GET is supported\n"));
    } else {
      write_all(conn, handle_path(path));
    }
    ::close(conn);
  }
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http_get: socket(): " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  try {
    addr = make_addr(host, port);
  } catch (const std::exception&) {
    ::close(fd);
    throw;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("http_get: connect to " + host + ":" + std::to_string(port) +
                             ": " + reason);
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  write_all(fd, request);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
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
