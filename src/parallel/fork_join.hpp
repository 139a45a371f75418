#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace are::parallel {

/// Runs task(i) for every i in [0, count) on up to `threads` short-lived
/// threads, the calling thread being one of them. Each thread claims the
/// lowest unclaimed index until none is left or a task has thrown. Every
/// thread is joined before this returns or throws; then the exception of the
/// lowest failing index is rethrown, which is the failure a serial loop over
/// the same indices would have stopped at (indices are claimed in order, so
/// every lower index ran).
///
/// This is the load phase's helper, used before any ThreadPool exists.
/// A task may wait for lower-indexed tasks (a checksum thread following the
/// reader). Indices are claimed in order, so the lowest unfinished task is
/// always running and cannot deadlock, even if fewer threads than asked for
/// could be started.
template <typename Task>
void fork_join(std::size_t count, std::size_t threads, const Task& task) {
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t index = next.fetch_add(1);
      if (index >= count) return;
      try {
        task(index);
      } catch (...) {
        errors[index] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> helpers;
  const std::size_t wanted = std::min(threads, count);
  helpers.reserve(wanted);
  for (std::size_t t = 1; t < wanted; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // the started threads and this one still claim every index
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// Hardware threads, at least 1.
inline std::size_t hardware_threads() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace are::parallel
