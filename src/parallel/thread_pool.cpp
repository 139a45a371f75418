#include "parallel/thread_pool.hpp"

#include <chrono>

#include "obs/telemetry.hpp"
#include "parallel/fork_join.hpp"

namespace are::parallel {

namespace {

/// The pool a worker serves and its 1..size() slot there; null and 0 on
/// any other thread. thread_local (not a pool member): a thread serves one
/// pool forever, so neither ever changes.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_slot = 0;

}  // namespace

std::size_t ThreadPool::worker_slot() const noexcept {
  return tls_pool == this ? tls_worker_slot : 0;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = hardware_threads();
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i + 1); });
    }
  } catch (...) {
    // No destructor runs for a constructor that throws: without this the
    // members' destructors would wait on task_available_ for the started
    // workers, or destroy them joinable and terminate.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::worker_loop(std::size_t slot) {
  tls_pool = this;
  tls_worker_slot = slot;
  for (;;) {
    // Sampled once per claim, so a disabled run's loop is the original
    // lock/wait/execute sequence with one extra relaxed load.
    const bool telemetry = obs::enabled();
    std::chrono::steady_clock::time_point wait_start{};
    if (telemetry) wait_start = std::chrono::steady_clock::now();

    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down with an empty queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (telemetry) {
      // Idle time = queue wait + claim contention, the utilization gap a
      // timeline shows between this worker's task spans. The task spans,
      // pool.tasks and pool.task_ns are the launch's to record
      // (parallel_for.hpp): its caller runs chunks too, and a helper that
      // finds its launch drained ran none.
      static obs::Counter& idle_ns = obs::TelemetryRegistry::global().counter("pool.idle_ns");
      idle_ns.add(static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                 std::chrono::steady_clock::now() - wait_start)
                                                 .count()));
    }
    task();
  }
}

}  // namespace are::parallel
