// Tests for the thread pool and parallel_for: completeness, disjointness
// and full coverage of ranges, the cost-aware parallel_for_costed variant,
// both partitioners' exact block boundaries, a short launch that does not
// wait for a long one on the same pool, the pool's task telemetry, worker
// identity, and the per-thread TaskScratch arena; and for the load phase's
// fork_join.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/task_scratch.hpp"
#include "parallel/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ARE_TEST_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ARE_TEST_SANITIZER 1
#endif
#endif

namespace {

using namespace are::parallel;
namespace obs = are::obs;

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor runs what is still queued, then joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

#ifndef ARE_TEST_SANITIZER
// Caps the address space 40 MiB above what is mapped, so a few worker
// stacks fit and 32 do not (glibc sizes them by RLIMIT_STACK, 8 MiB on
// common hosts), then starts a 32-worker pool. Exits 0 iff the constructor
// threw the start failure; a pool that hangs instead ends by SIGALRM.
[[noreturn]] void start_pool_under_address_cap() {
  alarm(30);
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap = pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) + (40u << 20);
  const rlimit limit{cap, cap};
  if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  try {
    ThreadPool pool(32);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(3);  // all 32 started: the cap did not bind
}
#endif

TEST(ThreadPoolDeathTest, WorkerThatCannotStartThrowsInsteadOfAborting) {
#ifdef ARE_TEST_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory does not fit under an RLIMIT_AS cap";
#else
  // Runs in a forked child: the cap must not bind this process.
  EXPECT_EXIT(start_pool_under_address_cap(), ::testing::ExitedWithCode(0), "");
#endif
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // most tasks are still queued here; none may be dropped
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::uint64_t kBegin = 13, kEnd = 10'007;
  std::vector<std::atomic<int>> visits(kEnd);
  for (auto& v : visits) v.store(0);

  parallel_for(pool, kBegin, kEnd, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });

  for (std::uint64_t i = 0; i < kBegin; ++i) EXPECT_EQ(visits[i].load(), 0) << i;
  for (std::uint64_t i = kBegin; i < kEnd; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, SumReductionMatchesSerial) {
  ThreadPool pool(8);
  constexpr std::uint64_t kN = 100'000;
  std::atomic<std::uint64_t> total{0};
  parallel_for(pool, 0, kN, [&](std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t local = 0;
    for (std::uint64_t i = lo; i < hi; ++i) local += i;
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), kN * (kN - 1) / 2);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  parallel_for(pool, 5, 5, [&](std::uint64_t, std::uint64_t) { called = true; });
  parallel_for(pool, 7, 3, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElementRange) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(pool, 9, 10, [&](std::uint64_t lo, std::uint64_t hi) {
    EXPECT_EQ(lo, 9u);
    EXPECT_EQ(hi, 10u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, MoreWorkersThanItems) {
  ThreadPool pool(16);
  constexpr std::uint64_t kN = 5;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  parallel_for(pool, 0, kN, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> visits(100, 0);  // no atomics needed: inline execution
  parallel_for(pool, 0, 100, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) ++visits[i];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForCosted, CoversSkewedRangeExactlyOnce) {
  ThreadPool pool(4);
  // Heavily skewed costs including zero-cost indices (empty trials): the
  // prefix is what the fused engine passes (YET offsets).
  constexpr std::uint64_t kN = 4'001;
  std::vector<std::uint64_t> prefix(kN + 1, 0);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const std::uint64_t cost = (i % 7 == 0) ? 0 : (i % 97) * (i % 97);
    prefix[i + 1] = prefix[i] + cost;
  }
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);

  parallel_for_costed(pool, 0, kN, prefix, [&](std::uint64_t lo, std::uint64_t hi) {
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, kN);
    for (std::uint64_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });

  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForCosted, BlocksAreCostBalanced) {
  ThreadPool pool(4);
  // All the cost concentrated in the first quarter of the range: an
  // equal-count split would give worker 0 everything.
  constexpr std::uint64_t kN = 1'000;
  std::vector<std::uint64_t> prefix(kN + 1, 0);
  for (std::uint64_t i = 0; i < kN; ++i) prefix[i + 1] = prefix[i] + (i < 250 ? 100 : 1);
  std::mutex mutex;
  std::vector<std::uint64_t> chunk_costs;
  parallel_for_costed(pool, 0, kN, prefix, [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard lock(mutex);
    chunk_costs.push_back(prefix[hi] - prefix[lo]);
  });
  ASSERT_GE(chunk_costs.size(), 2u);
  ASSERT_LE(chunk_costs.size(), 4u);
  const std::uint64_t total = prefix[kN];
  for (const std::uint64_t cost : chunk_costs) {
    // No block may carry the whole cost; every block stays near total/4.
    EXPECT_LE(cost, total / 2) << "cost partition degenerated";
  }
}

TEST(WorkerSlot, ZeroOffPoolAndStableWithinWorkers) {
  std::mutex mutex;
  std::set<std::size_t> slots;
  std::set<std::size_t> slots_on_other_pool;
  std::size_t size = 0;
  {
    ThreadPool other(2);
    ThreadPool pool(4);  // declared last: its destructor runs the queue while `other` lives
    size = pool.size();
    EXPECT_EQ(pool.worker_slot(), 0u);  // test thread is not a worker
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        std::lock_guard lock(mutex);
        slots.insert(pool.worker_slot());
        slots_on_other_pool.insert(other.worker_slot());
      });
    }
  }
  // Every observed slot is in 1..size(), and no worker reported 0; a worker
  // of one pool is slot 0 to another.
  EXPECT_FALSE(slots.contains(0));
  for (const std::size_t slot : slots) EXPECT_LE(slot, size);
  EXPECT_EQ(slots_on_other_pool, std::set<std::size_t>{0});
}

TEST(TaskScratch, OneInstancePerWorkerReusedAcrossTasks) {
  struct Scratch {
    int uses = 0;
  };
  std::latch done(50);  // outlives the pool: the last count_down has returned
  ThreadPool pool(3);
  TaskScratch<Scratch> scratch(pool);
  std::atomic<int> total_uses{0};
  for (int round = 0; round < 50; ++round) {
    pool.submit([&] {
      Scratch& local = scratch.local();
      ++local.uses;  // no lock: the slot belongs to this worker alone
      total_uses.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(total_uses.load(), 50);
  // The inline (non-worker) slot was never touched, and the factory form
  // constructs on first use only.
  int constructed = 0;
  TaskScratch<Scratch> lazy(pool);
  Scratch& a = lazy.local([&] {
    ++constructed;
    return Scratch{};
  });
  Scratch& b = lazy.local([&] {
    ++constructed;
    return Scratch{};
  });
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(constructed, 1);
}

TEST(TaskScratch, ForeignPoolWorkerFoldsToInlineSlot) {
  // A thread that is worker N of a big pool running an engine with its own
  // small pool reaches TaskScratch through parallel_for's inline path with
  // a slot number beyond the small arena; it must take slot 0 instead of
  // indexing out of bounds (the borrowed-pool pricing pattern).
  std::atomic<int> runs{0};
  {
    ThreadPool outer(8);
    for (int i = 0; i < 16; ++i) {
      outer.submit([&] {
        ThreadPool inner(1);
        TaskScratch<int> scratch(inner);  // 2 slots; this thread is worker 1..8 of outer
        parallel_for(inner, 0, 4, [&](std::uint64_t lo, std::uint64_t hi) {
          scratch.local() += static_cast<int>(hi - lo);
        });
        runs.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(runs.load(), 16);

  // Workers 1..4 of one pool launching on a second, 8-worker pool run chunks
  // beside that pool's workers 1..8: as callers they must take slot 0, not
  // their own numbers, or two threads share a slot. Each scratch object
  // counts the threads inside it at once, index by index, so every launch's
  // eight chunks overlap for their whole length.
  struct Holders {
    int count = 0;
  };
  std::atomic<int> shared_slots{0};
  std::atomic<int> launches{0};
  {
    ThreadPool inner(8);
    ThreadPool callers(4);
    for (int i = 0; i < 64; ++i) {
      callers.submit([&] {
        TaskScratch<Holders> scratch(inner);
        parallel_for(inner, 0, 64, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t index = lo; index < hi; ++index) {
            std::atomic_ref<int> holders(scratch.local().count);
            if (holders.fetch_add(1) != 0) shared_slots.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            holders.fetch_sub(1);
          }
        });
        launches.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(launches.load(), 64);
  EXPECT_EQ(shared_slots.load(), 0) << "chunk bodies found their scratch slot in use";
}

TEST(ParallelFor, ShortLaunchDoesNotWaitForALongOneOnTheSamePool) {
  // Launch A's chunks block until the latch opens; launch B, from another
  // thread on the same pool, must finish while A is still blocked. B's
  // caller runs B's chunks itself and joins on B's chunks alone.
  ThreadPool pool(4);
  std::latch release(1);
  std::atomic<int> a_running{0};
  std::thread long_caller([&] {
    parallel_for(pool, 0, 4, [&](std::uint64_t, std::uint64_t) {
      a_running.fetch_add(1);
      release.wait();
    });
  });
  while (a_running.load() < 4) std::this_thread::yield();

  std::atomic<int> b_chunks{0};
  auto short_launch = std::async(std::launch::async, [&] {
    parallel_for(pool, 0, 4, [&](std::uint64_t lo, std::uint64_t hi) {
      b_chunks.fetch_add(static_cast<int>(hi - lo));
    });
  });
  const bool returned =
      short_launch.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();
  long_caller.join();
  short_launch.get();
  EXPECT_TRUE(returned) << "the short launch waited for the long one";
  EXPECT_EQ(b_chunks.load(), 4);
}

TEST(ParallelFor, EveryChunkIsInsideOnePoolTaskSample) {
  // Each claimant that ran chunks, the caller included, records one
  // pool.task_ns sample covering them; a helper that found the launch
  // drained records none. So four 5 ms chunks leave at least 20 ms in
  // the histogram and no sample under 5 ms.
  obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
  obs::set_enabled(false);
  registry.reset();
  ThreadPool pool(4);
  obs::set_enabled(true);
  parallel_for(pool, 0, 4, [](std::uint64_t, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  obs::set_enabled(false);

  const obs::Snapshot snapshot = registry.snapshot();
  constexpr std::uint64_t kChunkNs = 5'000'000;
  bool found = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name != "pool.task_ns") continue;
    found = true;
    EXPECT_GE(histogram.sum_ns, 4 * kChunkNs);
    EXPECT_GE(histogram.min_ns, kChunkNs);
    EXPECT_EQ(histogram.count, snapshot.counter_value("pool.tasks"));
  }
  EXPECT_TRUE(found);
}

TEST(ParallelFor, StaticPartitionsAreContiguousBlocks) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  parallel_for(pool, 0, 1000, [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard lock(mutex);
    ranges.emplace_back(lo, hi);
  });
  // At most one range per worker, disjoint, covering [0, 1000).
  EXPECT_LE(ranges.size(), 4u);
  std::sort(ranges.begin(), ranges.end());
  std::uint64_t cursor = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 1000u);
}

// --- exact static boundaries ------------------------------------------------------
// Every pool engine's chunks are these partitions, so their boundaries are
// pinned exactly: a change to either partitioner shows here first.

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The [lo, hi) chunks one launch hands its body, sorted.
template <typename Launch>
Ranges chunks_of(const Launch& launch) {
  std::mutex mutex;
  Ranges ranges;
  launch([&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard lock(mutex);
    ranges.emplace_back(lo, hi);
  });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

Ranges count_blocks(std::size_t workers, std::uint64_t first, std::uint64_t last) {
  ThreadPool pool(workers);
  return chunks_of([&](const auto& body) { parallel_for(pool, first, last, body); });
}

Ranges cost_blocks(std::size_t workers, std::span<const std::uint64_t> prefix,
                   std::uint64_t first, std::uint64_t last) {
  ThreadPool pool(workers);
  return chunks_of([&](const auto& body) {
    parallel_for_costed(pool, first, last, prefix, body);
  });
}

TEST(StaticPartition, EqualCountBoundariesArePinned) {
  // ceil(count / workers) indices a block, the last one short.
  EXPECT_EQ(count_blocks(4, 13, 10'007),
            (Ranges{{13, 2'512}, {2'512, 5'011}, {5'011, 7'510}, {7'510, 10'007}}));
  EXPECT_EQ(count_blocks(3, 0, 257), (Ranges{{0, 86}, {86, 172}, {172, 257}}));
  EXPECT_EQ(count_blocks(16, 0, 5), (Ranges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
}

TEST(StaticPartition, EqualCostBoundariesArePinned) {
  // Skewed costs with zero-cost runs at both ends and inside; index 6 alone
  // carries 30 of 75. A block ends at the first index whose prefix reaches
  // its start's prefix plus total / workers + 1, or at the range's end.
  constexpr std::uint64_t kCosts[] = {0, 0, 9, 1, 0, 0, 30, 2, 2, 0, 0, 0,
                                      5, 5, 5, 0, 1, 1, 1, 1, 0, 12, 0, 0};
  std::vector<std::uint64_t> prefix{0};
  for (const std::uint64_t cost : kCosts) prefix.push_back(prefix.back() + cost);
  EXPECT_EQ(cost_blocks(4, prefix, 0, 24), (Ranges{{0, 7}, {7, 15}, {15, 24}}));
  EXPECT_EQ(cost_blocks(3, prefix, 0, 24), (Ranges{{0, 7}, {7, 22}, {22, 24}}));
  EXPECT_EQ(cost_blocks(4, prefix, 3, 22), (Ranges{{3, 7}, {7, 15}, {15, 22}}));
  EXPECT_EQ(cost_blocks(16, prefix, 0, 24),
            (Ranges{{0, 3}, {3, 7}, {7, 13}, {13, 14}, {14, 15}, {15, 22}, {22, 24}}));
}

// --- fork_join ------------------------------------------------------------------

TEST(ForkJoin, RunsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> runs(100);
    fork_join(runs.size(), threads, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (const auto& count : runs) EXPECT_EQ(count.load(), 1) << threads << " threads";
  }
  fork_join(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ForkJoin, RethrowsTheLowestFailingIndex) {
  // Index 5 fails at once; index 2 fails only after it has seen index 5's
  // failure, so the first failure in time is not the one reported.
  std::atomic<bool> five_failed{false};
  try {
    fork_join(8, 8, [&](std::size_t i) {
      if (i == 5) {
        five_failed = true;
        throw std::runtime_error("index 5");
      }
      if (i == 2) {
        while (!five_failed) std::this_thread::yield();
        throw std::runtime_error("index 2");
      }
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "index 2");
  }
}

TEST(ForkJoin, JoinsEveryTaskBeforeRethrowing) {
  std::atomic<int> finished{0};
  EXPECT_THROW(fork_join(4, 4,
                         [&](std::size_t i) {
                           if (i == 0) throw std::runtime_error("fail");
                           std::this_thread::sleep_for(std::chrono::milliseconds(20));
                           finished.fetch_add(1);
                         }),
               std::runtime_error);
  // Whatever started has finished: nothing still runs against this frame.
  const int seen = finished.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(finished.load(), seen);
}

TEST(ForkJoin, LaterTasksMayWaitOnIndexZero) {
  // The reader/checksum shape: tasks 1..n wait until task 0 has produced
  // their input. Index 0 is claimed first, so even one thread cannot
  // deadlock.
  for (const std::size_t threads : {1u, 4u}) {
    std::mutex mutex;
    std::condition_variable produced;
    int ready = 0;
    std::vector<int> seen(4, -1);
    fork_join(4, threads, [&](std::size_t i) {
      std::unique_lock lock(mutex);
      if (i == 0) {
        ready = 3;
        produced.notify_all();
        return;
      }
      produced.wait(lock, [&] { return ready > 0; });
      seen[i] = ready;
    });
    EXPECT_EQ(seen, (std::vector<int>{-1, 3, 3, 3})) << threads << " threads";
  }
}

}  // namespace
