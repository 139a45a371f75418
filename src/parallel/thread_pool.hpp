#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace are::parallel {

/// A fixed-size worker pool. The aggregate risk engine assigns one logical
/// task per trial range (mirroring the paper's one-OpenMP-thread-per-trial
/// design); the pool is the shared-memory substrate under the
/// ParallelEngine.
class ThreadPool {
 public:
  /// `num_threads == 0` selects hardware_threads(). A worker that cannot
  /// start throws std::system_error, with the started workers joined.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Identity of the calling thread within this pool: 1..size() on one of
  /// its workers, 0 on any other thread (the caller of a parallel_for, which
  /// runs chunks itself, or a worker of another pool). A worker belongs to
  /// exactly one pool for its whole life, so the slot is stable —
  /// TaskScratch uses it to give each thread of a launch a private scratch
  /// arena without locks or allocation on the hot path.
  std::size_t worker_slot() const noexcept;

  /// Enqueues a task. Tasks must not throw; exceptions escaping a task
  /// terminate (by design — engine kernels are noexcept). The destructor
  /// runs every task still queued before it joins the workers.
  void submit(std::function<void()> task);

 private:
  void worker_loop(std::size_t slot);
  void stop_and_join() noexcept;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

}  // namespace are::parallel
