#pragma once

// The scrape surface of the observability plane: a tiny background
// HTTP/1.1 listener (TCP, so Prometheus/curl can reach it) serving the
// process-wide telemetry registry:
//
//   GET /metrics  Prometheus text exposition (obs/export.hpp), real
//                 histogram families + derived p50/p95/p99 gauges, plus
//                 are_uptime_seconds.
//   GET /healthz  liveness: "ok" 200 while the `healthy` callback (the
//                 service wires in broker shutdown state) says so,
//                 "shutting-down" 503 once draining.
//   GET /statusz  one JSON object for operators: build info, uptime,
//                 every registry gauge (inflight/queued/cache/shard
//                 levels), per-source quote counts, armed fault sites,
//                 and an optional embedder-supplied fragment.
//
// One request per connection (Connection: close), each on its own thread
// through net::Listener, at most net::kMaxConnections at once and the next
// answered 503, so an idle client delays neither a scrape nor stop().
// Responses are moment-in-time registry snapshots; scraping never blocks
// or perturbs instrumentation (the zero-cost telemetry contract holds
// with the server running — CI byte-diffs served CSVs to prove it).
//
// Started by `are_cli serve --metrics-port N` and embeddable anywhere via
// ServiceConfig::metrics (port 0 binds an ephemeral port — tests read the
// real one back from port()). handle_path() is the request core and is
// directly testable without a socket.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "net/socket.hpp"

namespace are::obs {

struct MetricsServerOptions {
  /// Address to bind; loopback by default (the operator view and scraper
  /// run beside the service — exposing wider is an explicit decision).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
  int port = 0;
  /// Liveness probe for /healthz; null means always healthy. The service
  /// front end wires this to !broker.shutting_down().
  std::function<bool()> healthy;
  /// Optional JSON object (rendered string, e.g. `{"socket":"are.sock"}`)
  /// merged into /statusz under "embedder".
  std::function<std::string()> extra_status;
};

class MetricsServer {
 public:
  explicit MetricsServer(MetricsServerOptions options = {});
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// Binds and launches the accept thread. Throws std::runtime_error when
  /// the port cannot be bound. Idempotent once started.
  void start();

  /// Stops accepting and drains open connections. Idempotent; the
  /// destructor calls it.
  void stop();

  /// The actually-bound port (resolves ephemeral port 0); valid after
  /// start().
  int port() const noexcept { return listener_ ? listener_->port() : 0; }

  bool running() const noexcept { return thread_.joinable(); }

  /// Renders the full HTTP response (status line through body) for one
  /// request path — the testable core behind the socket loop.
  std::string handle_path(const std::string& path) const;

 private:
  MetricsServerOptions options_;
  std::optional<net::Listener> listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::chrono::steady_clock::time_point started_at_{};
};

/// Minimal blocking HTTP/1.1 GET (the `are_cli top` poller and the test
/// client): connects, sends the request, returns the response *body*.
/// Throws std::runtime_error on connection failure, malformed response,
/// or a non-200 status.
std::string http_get(const std::string& host, int port, const std::string& path);

}  // namespace are::obs
