#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace are::parallel {

/// Per-thread scratch arena for parallel_for bodies: one T per pool worker
/// plus one for the launch's calling thread, constructed lazily on first use
/// and reused across every chunk that thread claims. This is what keeps the
/// engines' hot path allocation-free — a scratch object's buffers grow to
/// the high-water mark during the first few chunks and are then recycled,
/// where constructing scratch inside the body would reallocate per chunk.
///
/// Thread safety: slots are indexed by the pool's worker_slot(), and a slot
/// is only ever touched by one thread at a time. A launch runs on its
/// caller and on this pool's workers, each worker on its own slot. A caller
/// that is not a worker of this pool takes slot 0, whether it is a
/// connection thread, the CLI's main thread or a worker of another pool
/// (whose slot number means nothing here). An arena serves one launch at a
/// time.
template <typename T>
class TaskScratch {
 public:
  explicit TaskScratch(const ThreadPool& pool) : pool_(&pool), slots_(pool.size() + 1) {}

  /// The calling thread's scratch object, default-constructed on first use.
  T& local() {
    return local([] { return T{}; });
  }

  /// As local(), but first use constructs via `make()` (for scratch types
  /// without a default constructor, e.g. per-layer runners).
  template <typename Make>
  T& local(const Make& make) {
    std::unique_ptr<T>& slot = slots_[pool_->worker_slot()];
    if (!slot) slot = std::make_unique<T>(make());
    return *slot;
  }

  /// Visits every scratch object constructed so far — the post-run merge
  /// step for per-worker accumulators (phase timers, counters). Only valid
  /// after the parallel region has completed; not synchronised with
  /// running tasks.
  template <typename Fn>
  void for_each(const Fn& fn) const {
    for (const std::unique_ptr<T>& slot : slots_) {
      if (slot) fn(*slot);
    }
  }

 private:
  const ThreadPool* pool_;
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace are::parallel
