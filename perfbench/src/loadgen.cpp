// Open-loop quote client for pricing_desk.
//
// The plan (seeded by run.py) lists each request's due time and protocol
// line. `--conns` workers (at most the host's hardware threads) take the
// requests in due order; each opens one connection per request, as
// `are_cli quote` does, sends the line and reads the response line. A
// request is timed from its due time, so a request that waited for a free
// connection carries that wait. How late the generator itself ran — the
// gap between a free worker's wake-up and its due time — is recorded
// apart, so a run whose generator fell behind can be told from a slow one.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "service/server.hpp"

namespace perfbench {

int cmd_loadgen(const Options& options) {
  const std::string socket = options.require("socket");
  const auto conns = static_cast<std::size_t>(options.number("conns", 1));
  std::vector<std::int64_t> due_us;
  std::vector<std::string> lines;
  {
    std::ifstream in(options.require("plan"));
    if (!in) throw std::runtime_error("cannot open plan");
    for (std::string line; std::getline(in, line);) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      due_us.push_back(std::stoll(line.substr(0, tab)));
      lines.push_back(line.substr(tab + 1));
    }
  }
  const std::size_t n = lines.size();
  struct Result {
    double start_us = 0, end_us = 0, late_us = 0;
    std::string response;
  };
  std::vector<Result> results(n);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto us_since_t0 = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < std::max<std::size_t>(conns, 1); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const auto due = t0 + std::chrono::microseconds(due_us[i]);
        const auto free_at = Clock::now();
        if (free_at < due) std::this_thread::sleep_until(due);
        const auto start = Clock::now();
        Result& result = results[i];
        result.start_us = us_since_t0(start);
        result.late_us = us_since_t0(start) - us_since_t0(std::max(due, free_at));
        try {
          result.response = are::service::Server::round_trip(socket, lines[i]);
        } catch (const std::exception& error) {
          result.response = std::string("{\"status\":\"transport-error\",\"message\":") +
                            json_string(error.what()) + "}";
        }
        result.end_us = us_since_t0(Clock::now());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  std::ofstream out(options.require("out"));
  if (!out) throw std::runtime_error("cannot write results");
  std::vector<double> late;
  for (std::size_t i = 0; i < n; ++i) {
    const Result& r = results[i];
    out << i << '\t' << due_us[i] << '\t' << json_number(r.start_us) << '\t'
        << json_number(r.end_us) << '\t' << json_number(r.late_us) << '\t' << r.response << '\n';
    late.push_back(r.late_us);
  }
  std::sort(late.begin(), late.end());
  const double late_max_ms = late.empty() ? 0.0 : late.back() / 1e3;
  std::cout << Json().num("requests", static_cast<double>(n)).num("late_max_ms", late_max_ms).done()
            << "\n";
  return 0;
}

}  // namespace perfbench
