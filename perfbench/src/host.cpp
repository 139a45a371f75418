// Host warm-up and host ceilings.
//
// spin: on the benchmark's VM the first ~1 s of compute after an idle
// spell runs several times slower; spinning every hardware thread first
// brings the host to the state the timed runs assume.
//
// host: two ceilings the kernel numbers are read against (roofline-style).
//  * gather_per_s — random 8-byte loads on all threads over an array the
//    size of the workload's direct tables, indices precomputed so the loop
//    is loads only, eight independent streams per thread (the probe must
//    reach at least the kernel's memory-level parallelism).
//  * read_gbps — STREAM-style sequential reads over an array at least four
//    times the last-level cache, best of three passes.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Runs body(thread_index) on every hardware thread and joins them all.
template <typename Body>
void on_all_threads(Body body) {
  std::vector<std::thread> threads;
  const std::size_t count = hardware_threads();
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

/// Random 8-byte loads over `table_bytes`, best of `rounds` timed rounds
/// (the first round of compute on a VM can run slow).
double gather_probe(std::size_t table_bytes, double seconds, int rounds) {
  const std::size_t slots = std::max<std::size_t>(table_bytes / sizeof(double), 1024);
  std::vector<double> table(slots);
  for (std::size_t i = 0; i < slots; ++i) table[i] = static_cast<double>(i & 1023);

  constexpr std::size_t kIndices = std::size_t{1} << 21;
  const std::size_t threads = hardware_threads();
  std::vector<std::vector<std::uint32_t>> indices(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    std::mt19937_64 rng(0x9e3779b97f4a7c15ULL + t);
    std::uniform_int_distribution<std::uint32_t> pick(0, static_cast<std::uint32_t>(slots - 1));
    indices[t].resize(kIndices);
    for (auto& index : indices[t]) index = pick(rng);
  }

  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    std::atomic<std::uint64_t> total{0};
    std::atomic<double> sink{0.0};
    const auto start = Clock::now();
    on_all_threads([&](std::size_t t) {
      const std::uint32_t* idx = indices[t].data();
      const double* a = table.data();
      double s[8] = {};
      std::uint64_t done = 0;
      while (seconds_since(start) < seconds) {
        for (std::size_t i = 0; i < kIndices; i += 8) {
          s[0] += a[idx[i]];
          s[1] += a[idx[i + 1]];
          s[2] += a[idx[i + 2]];
          s[3] += a[idx[i + 3]];
          s[4] += a[idx[i + 4]];
          s[5] += a[idx[i + 5]];
          s[6] += a[idx[i + 6]];
          s[7] += a[idx[i + 7]];
        }
        done += kIndices;
      }
      total.fetch_add(done);
      double acc = 0.0;
      for (const double v : s) acc += v;
      sink.store(acc);
    });
    best = std::max(best, static_cast<double>(total.load()) / seconds_since(start));
  }
  return best;
}

double read_probe(std::size_t bytes) {
  const std::size_t count = bytes / sizeof(double);
  std::vector<double> data(count, 1.0);
  const std::size_t threads = hardware_threads();
  std::atomic<double> sink{0.0};
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
    on_all_threads([&](std::size_t t) {
      const std::size_t begin = count * t / threads;
      const std::size_t end = count * (t + 1) / threads;
      double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (std::size_t i = begin; i + 4 <= end; i += 4) {
        s0 += data[i];
        s1 += data[i + 1];
        s2 += data[i + 2];
        s3 += data[i + 3];
      }
      sink.store(s0 + s1 + s2 + s3);
    });
    best = std::max(best, static_cast<double>(bytes) / seconds_since(start) / 1e9);
  }
  return best;
}

void spin_all_threads(double seconds) {
  const auto start = Clock::now();
  std::atomic<double> sink{0.0};
  on_all_threads([&](std::size_t t) {
    double x = 1.0 + static_cast<double>(t);
    while (seconds_since(start) < seconds) {
      for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 1e-9;
    }
    sink.store(x);
  });
}

}  // namespace

int cmd_spin(const Options& options) {
  const double seconds = options.number("seconds", 1.5);
  spin_all_threads(seconds);
  std::cout << Json().num("spin_s", seconds).num("threads", hardware_threads()).done() << "\n";
  return 0;
}

int cmd_host(const Options& options) {
  const auto gather_bytes = static_cast<std::size_t>(options.number("gather-mb", 64) * 1e6);
  const double seconds = options.number("seconds", 1.0);
  long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t read_bytes =
      std::max<std::size_t>(4 * static_cast<std::size_t>(llc), std::size_t{256} << 20);

  const double gathers = gather_probe(gather_bytes, seconds / 3.0, 3);
  const double gbps = read_probe(read_bytes);
  std::cout << Json()
                   .num("gather_per_s", gathers)
                   .num("gather_array_mb", static_cast<double>(gather_bytes) / 1e6)
                   .num("read_gbps", gbps)
                   .num("read_array_mb", static_cast<double>(read_bytes) / 1e6)
                   .num("llc_mb", static_cast<double>(llc) / 1e6)
                   .num("threads", static_cast<double>(hardware_threads()))
                   .done()
            << "\n";
  return 0;
}

}  // namespace perfbench
