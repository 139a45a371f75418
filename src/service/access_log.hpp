#pragma once

// Structured per-request access log of the resident service — one JSONL
// line per quote (served, rejected, and failed alike; protocol-level
// parse errors are connection noise, not quotes, and do not log). The
// line is rendered from the quote's telemetry diff (Snapshot::diff), so
// it carries the same per-request numbers the wire response and the
// trace annotations do — request id first, so `grep q-000042` across the
// access log and the Chrome trace tells one story.
//
// Schema (stable keys, one JSON object per line — see README "Operating
// the service" for the field table):
//
//   {"request_id":"q-000001","portfolio":"book","source":"cold",
//    "status":"ok","code":"ok","engine":"fused","fingerprint":"9f…",
//    "admission":"admitted","reason":"none","queue_wait_seconds":0,
//    "deadline_ms":0,"wall_ns":1234567,"elt_lookups":40000,
//    "fault_fires":{}}
//
// The same RequestLogEntry renders the `--verbose` stderr line
// (access_log_human), so the two surfaces cannot drift apart.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "service/analysis_service.hpp"

namespace are::service {

/// Everything one access-log line / verbose line says about a quote,
/// extracted once from the request + response (incl. the telemetry diff
/// when present — the counter-derived fields are zero without it).
struct RequestLogEntry {
  std::string request_id;
  std::string portfolio_id;
  std::string source;            ///< cold | cached | delta | rejected | failed
  std::string status;            ///< ok | rejected | error (wire status)
  std::string code;              ///< core::StatusCode wire name
  std::string engine;
  std::string fingerprint_hex;   ///< %016llx, as on the wire
  std::string admission;         ///< admitted | rejected
  std::string admission_reason;  ///< RejectReason wire name
  double queue_wait_seconds = 0.0;
  std::uint64_t deadline_ms = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t elt_lookups = 0;  ///< sum of elt.*.lookups over the request
  /// fault.injected.* counters that fired during the request (site suffix,
  /// fire count) — chaos runs are self-describing in the log.
  std::vector<std::pair<std::string, std::uint64_t>> fault_fires;
};

/// `s` escaped for use inside a JSON string literal.
std::string json_escape(std::string_view s);

/// Builds the entry for one completed quote() call.
RequestLogEntry make_log_entry(const QuoteRequest& request, const QuoteResponse& response);

/// One JSON object, no trailing newline.
std::string access_log_json(const RequestLogEntry& entry);

/// The `--verbose` stderr rendering ("[serve] q-000001 book source=cold ...").
std::string access_log_human(const RequestLogEntry& entry);

/// Append-only JSONL sink; thread-safe, flushed per line so a tail -f (or
/// a crashed process) never sees a torn line.
class AccessLog {
 public:
  /// Throws std::runtime_error when the path cannot be opened for append.
  explicit AccessLog(const std::string& path);

  void write(const RequestLogEntry& entry);

 private:
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace are::service
