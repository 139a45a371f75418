#pragma once

// Socket front end of the resident analysis service: a line-oriented
// protocol over an AF_UNIX stream socket. One request per line, one
// single-line JSON response per request — trivially scriptable from CI
// (`are_cli quote` is the bundled client; `nc -U` works too).
//
// Requests (space-separated key=value tokens after the verb):
//
//   PING
//   QUOTE portfolio=<id> [layer=<id>] [occ-retention=] [occ-limit=]
//         [agg-retention=] [agg-limit=] [engine=<name>] [window=<from:to>]
//         [cache=0] [delta=0] [csv=<path>] [deadline-ms=<n>] [sharded=1]
//   UPDATE portfolio=<id> layer=<id> [occ-retention=] [occ-limit=]
//         [agg-retention=] [agg-limit=]
//   SHUTDOWN
//
// Responses carry "status":"ok" | "rejected" | "error"; the non-ok forms
// add the structured failure triple "code" (core::StatusCode wire name),
// "retryable", and "message" — see README "Failure model". Bit-identity
// guarantees apply to "ok" responses only. A malformed line (unknown verb,
// bad field, unknown portfolio/layer/engine) is "invalid-argument"; so is a
// line longer than 64 KiB, whose connection is then closed. deadline-ms
// bounds the quote's wall clock (cancelled between trial blocks → code
// "deadline-exceeded"); sharded=1 executes out-of-core under
// ServiceConfig::sharding, where spill failure fails the quote
// ("spill-failure"), never the process.
//
// QUOTE term keys build a per-request TermsOverride (the book is not
// mutated); UPDATE mutates the book durably (terms-only, so the ground-up
// cache survives and subsequent quotes take the delta path). csv=<path>
// makes the *server* write the resulting YLT as CSV before responding —
// the CI smoke byte-diffs that file against a one-shot `are_cli run`.
//
// handle_line() is the protocol core and is directly testable without a
// socket; serve() owns the accept loop (one thread per connection, joined
// on shutdown).

#include <atomic>
#include <string>

#include "service/analysis_service.hpp"

namespace are::service {

struct ServerOptions {
  std::string socket_path = "are.sock";
  /// Print a per-request line to stderr with the source, wall time, and
  /// the request's telemetry diff highlights (lookups, lookup_ns).
  bool verbose = false;
};

class Server {
 public:
  Server(AnalysisService& service, ServerOptions options = {});

  /// Executes one protocol line and returns the JSON response (no trailing
  /// newline). Never throws: malformed requests and engine errors come
  /// back as {"status":"error","code":...,"message":...}.
  std::string handle_line(const std::string& line);

  /// Binds the socket and serves until a SHUTDOWN request or
  /// request_stop(). Returns 0 on clean shutdown; throws std::runtime_error
  /// when the socket cannot be bound.
  int serve();

  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const noexcept { return stop_.load(std::memory_order_relaxed); }

  /// Minimal client: connect, send one line, read one response line.
  /// Throws std::runtime_error on connection or I/O failure.
  static std::string round_trip(const std::string& socket_path, const std::string& line);

 private:
  std::string handle_quote(const std::string& line);
  std::string handle_update(const std::string& line);

  AnalysisService& service_;
  ServerOptions options_;
  std::atomic<bool> stop_{false};
};

}  // namespace are::service
