#include "service/access_log.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace are::service {

constexpr std::string_view kFaultPrefix = "fault.injected.";

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

RequestLogEntry make_log_entry(const QuoteRequest& request, const QuoteResponse& response) {
  RequestLogEntry entry;
  entry.request_id = response.request_id;
  entry.portfolio_id = request.portfolio_id;
  entry.source = std::string(to_string(response.source));
  entry.status = response.source == QuoteSource::kRejected ? "rejected"
                 : response.source == QuoteSource::kFailed ? "error"
                                                           : "ok";
  entry.code = std::string(core::to_string(response.status.code()));
  entry.engine = response.engine;
  {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(response.fingerprint));
    entry.fingerprint_hex = fp;
  }
  entry.admission = std::string(to_string(response.admission.outcome));
  entry.admission_reason = std::string(to_string(response.admission.reason));
  entry.queue_wait_seconds = response.admission.queue_wait_seconds;
  entry.deadline_ms = request.deadline_ms;
  entry.wall_ns = static_cast<std::uint64_t>(response.wall_seconds * 1e9);
  if (response.telemetry.has_value()) {
    const obs::Snapshot& diff = *response.telemetry;
    entry.elt_lookups = diff.counter_sum("elt.", ".lookups");
    for (const auto& counter : diff.counters) {
      const std::string& name = counter.name;
      if (counter.value != 0 && name.size() > kFaultPrefix.size() &&
          name.compare(0, kFaultPrefix.size(), kFaultPrefix) == 0) {
        entry.fault_fires.emplace_back(name.substr(kFaultPrefix.size()), counter.value);
      }
    }
  }
  return entry;
}

std::string access_log_json(const RequestLogEntry& entry) {
  std::ostringstream out;
  out << "{\"request_id\":\"" << json_escape(entry.request_id) << "\""
      << ",\"portfolio\":\"" << json_escape(entry.portfolio_id) << "\""
      << ",\"source\":\"" << entry.source << "\""
      << ",\"status\":\"" << entry.status << "\""
      << ",\"code\":\"" << entry.code << "\""
      << ",\"engine\":\"" << json_escape(entry.engine) << "\""
      << ",\"fingerprint\":\"" << entry.fingerprint_hex << "\""
      << ",\"admission\":\"" << entry.admission << "\""
      << ",\"reason\":\"" << entry.admission_reason << "\""
      << ",\"queue_wait_seconds\":" << entry.queue_wait_seconds
      << ",\"deadline_ms\":" << entry.deadline_ms << ",\"wall_ns\":" << entry.wall_ns
      << ",\"elt_lookups\":" << entry.elt_lookups << ",\"fault_fires\":{";
  for (std::size_t i = 0; i < entry.fault_fires.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << json_escape(entry.fault_fires[i].first)
        << "\":" << entry.fault_fires[i].second;
  }
  out << "}}";
  return out.str();
}

std::string access_log_human(const RequestLogEntry& entry) {
  std::ostringstream out;
  out << "[serve] " << entry.request_id << " " << entry.portfolio_id
      << " source=" << entry.source << " status=" << entry.status;
  if (entry.status != "ok") out << " code=" << entry.code;
  out << " engine=" << entry.engine << " wall_ms=" << static_cast<double>(entry.wall_ns) / 1e6;
  if (entry.queue_wait_seconds > 0.0) out << " queue_wait_s=" << entry.queue_wait_seconds;
  out << " elt_lookups=" << entry.elt_lookups;
  for (const auto& [site, fires] : entry.fault_fires) {
    out << " fault." << site << "=" << fires;
  }
  return out.str();
}

AccessLog::AccessLog(const std::string& path) : out_(path, std::ios::app) {
  if (!out_) throw std::runtime_error("cannot open access log path " + path);
}

void AccessLog::write(const RequestLogEntry& entry) {
  std::lock_guard<std::mutex> guard(mutex_);
  out_ << access_log_json(entry) << '\n';
  out_.flush();
}

}  // namespace are::service
