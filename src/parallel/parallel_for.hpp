#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace are::parallel {

namespace detail {

/// One claimant's turn at a launch, to the pool's telemetry: a pool.tasks
/// tick now, and the histogram its pool.task_ns sample goes to (null when
/// telemetry is off).
inline obs::Histogram* count_pool_task() {
  if (!obs::enabled()) return nullptr;
  static obs::Counter& tasks = obs::TelemetryRegistry::global().counter("pool.tasks");
  static obs::Histogram& task_ns = obs::TelemetryRegistry::global().histogram("pool.task_ns");
  tasks.increment();
  return &task_ns;
}

/// One launch over [first, last): a claim cursor and the count of threads
/// inside the claim routine. `next(lo)` is the partition, the end of the
/// chunk that starts at lo; chunks are claimed in order from the cursor, so
/// the boundaries do not depend on which thread claims which chunk.
///
/// The state is shared-owned by the caller and its helper tasks. A helper
/// may start after the caller has returned (it queued behind other
/// launches' tasks); it then finds the cursor at `last` and returns without
/// touching `next` or the body, both of which may be gone by then.
/// Sequentially consistent cursor and count operations make that sound:
/// the caller returns only after it has seen the cursor exhausted and then
/// no thread inside, so a helper that enters later sees the cursor
/// exhausted too.
template <typename Next, typename Body>
class Launch {
 public:
  Launch(std::uint64_t first, std::uint64_t last, Next next, const Body& body)
      : cursor_(first), last_(last), next_(next), body_(&body) {}

  /// Claims and runs chunks until none is left. A run that ran at least one
  /// chunk is one pool task to telemetry, on whichever thread it ran.
  /// Bodies must not throw: on the caller as on a worker, an escaping
  /// exception terminates.
  void run() noexcept {
    inside_.fetch_add(1);
    std::uint64_t lo = 0, hi = 0;
    if (claim(lo, hi)) {
      obs::Span span("pool.task", "pool");
      obs::ScopedTimer timer(count_pool_task());
      do {
        (*body_)(lo, hi);
      } while (claim(lo, hi));
    }
    if (inside_.fetch_sub(1) == 1) inside_.notify_all();
  }

  /// After the caller's own run(): waits until no other thread is still
  /// running one of this launch's chunks.
  void join() noexcept {
    for (unsigned n = inside_.load(); n != 0; n = inside_.load()) inside_.wait(n);
  }

 private:
  bool claim(std::uint64_t& lo, std::uint64_t& hi) noexcept {
    lo = cursor_.load();
    do {
      if (lo >= last_) return false;
      hi = next_(lo);
    } while (!cursor_.compare_exchange_weak(lo, hi));
    return true;
  }

  std::atomic<std::uint64_t> cursor_;
  std::atomic<unsigned> inside_{0};
  const std::uint64_t last_;
  const Next next_;
  const Body* body_;
};

/// Runs body over the chunks `next` draws from [first, last): the calling
/// thread claims and runs chunks itself, beside at most
/// min(pool.size(), chunks - 1) helper tasks on the pool, and returns when
/// this launch's chunks have finished, whatever else the pool is running.
template <typename Next, typename Body>
void launch(ThreadPool& pool, std::uint64_t first, std::uint64_t last, Next next,
            const Body& body) {
  const std::size_t workers = pool.size();
  std::size_t chunks = 0;
  for (std::uint64_t lo = first; lo < last && chunks <= workers; lo = next(lo)) ++chunks;
  auto state = std::make_shared<Launch<Next, Body>>(first, last, next, body);
  for (std::size_t helper = 1; helper < chunks; ++helper) {
    pool.submit([state] { state->run(); });
  }
  state->run();
  state->join();
}

}  // namespace detail

/// Runs body(begin, end) over disjoint subranges of [first, last), blocking
/// until every subrange has run: one contiguous block of ceil(count /
/// workers) indices per worker, the last one short. The calling thread runs
/// blocks too, so a launch progresses even while the pool's workers serve
/// other callers. `body` receives half-open index ranges, must be safe to
/// run concurrently on disjoint ranges, and must not throw. Runs inline
/// when the range has one index or the pool has one thread (keeps
/// single-core containers and tests deterministic and cheap).
template <typename Body>
void parallel_for(ThreadPool& pool, std::uint64_t first, std::uint64_t last, const Body& body) {
  if (first >= last) return;
  const std::uint64_t count = last - first;
  const std::uint64_t workers = pool.size();
  if (workers <= 1 || count == 1) {
    body(first, last);
    return;
  }
  const std::uint64_t step = (count + workers - 1) / workers;
  const auto next = [step, last](std::uint64_t lo) { return std::min(lo + step, last); };
  detail::launch(pool, first, last, next, body);
}

namespace detail {

/// First index hi in (lo, last] whose chunk [lo, hi) carries at least
/// `budget` cost under the monotone prefix, or last. Always advances by at
/// least one index, so zero-cost indices (e.g. empty trials) cannot stall
/// a claimant.
inline std::uint64_t advance_by_cost(std::span<const std::uint64_t> cost_prefix,
                                     std::uint64_t lo, std::uint64_t last,
                                     std::uint64_t budget) noexcept {
  const std::uint64_t target = cost_prefix[lo] + budget;
  const auto begin = cost_prefix.begin();
  // Search ends at index `last` exclusive: when every candidate chunk falls
  // short of the budget the claimant takes everything up to `last`.
  const auto it = std::lower_bound(begin + static_cast<std::ptrdiff_t>(lo + 1),
                                   begin + static_cast<std::ptrdiff_t>(last), target);
  return static_cast<std::uint64_t>(it - begin);
}

/// Costed-chunk execution with telemetry: every claimed chunk is one span
/// on the worker's timeline (how well equal-cost chunks actually pack) and
/// one tick of parallel.costed_chunks.
template <typename Body>
inline void run_costed_chunk(const Body& body, std::uint64_t lo, std::uint64_t hi) {
  if (obs::enabled()) {
    static obs::Counter& chunks =
        obs::TelemetryRegistry::global().counter("parallel.costed_chunks");
    chunks.increment();
  }
  obs::Span span("parallel.costed_chunk", "parallel");
  body(lo, hi);
}

}  // namespace detail

/// Cost-aware parallel_for for ranges whose per-index work is skewed (the
/// aggregate engines' trials: a Poisson/neg-binomial YET makes some trials
/// many times longer than others, so equal-*count* blocks serialize on the
/// worker that drew the long trials). `cost_prefix` is a monotone prefix
/// sum over the index domain — cost of [a, b) is prefix[b] - prefix[a] and
/// prefix must be valid on [first, last]; the YET's offsets() span is
/// exactly this shape for trial indices. The range splits into contiguous
/// equal-cost blocks, at most one per worker: a block ends at the first
/// index whose prefix reaches the block's start plus total / workers + 1,
/// or at `last`. Same body contract, caller participation and inline
/// small-range behaviour as parallel_for.
template <typename Body>
void parallel_for_costed(ThreadPool& pool, std::uint64_t first, std::uint64_t last,
                         std::span<const std::uint64_t> cost_prefix, const Body& body) {
  if (first >= last) return;
  const std::uint64_t workers = pool.size();
  if (workers <= 1 || last - first == 1) {
    detail::run_costed_chunk(body, first, last);
    return;
  }
  const std::uint64_t budget = (cost_prefix[last] - cost_prefix[first]) / workers + 1;
  const auto next = [cost_prefix, budget, last](std::uint64_t lo) {
    return detail::advance_by_cost(cost_prefix, lo, last, budget);
  };
  detail::launch(pool, first, last, next, [&body](std::uint64_t lo, std::uint64_t hi) {
    detail::run_costed_chunk(body, lo, hi);
  });
}

}  // namespace are::parallel
