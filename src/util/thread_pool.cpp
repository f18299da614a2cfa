#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace bfly {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::run_chunked(
    std::size_t begin, std::size_t end, std::size_t max_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    const CancelToken* cancel) {
  BFLY_REQUIRE(begin <= end, "run_chunked: begin must not exceed end");
  const std::size_t n = end - begin;
  if (n == 0) return;
  if (CancelToken::cancelled(cancel)) return;  // nothing starts after cancel
  const std::size_t chunks = std::max<std::size_t>(1, std::min(max_chunks, n));
  if (chunks == 1) {
    body(begin, end, 0);
    return;
  }

  // Region-local completion state.  run_chunked does not return before
  // remaining hits 0, so stack references captured by the task closures stay
  // valid for their whole lifetime.
  struct Region {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr first_error;
  } region;

  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(chunks);
  for (std::size_t t = 0; t < chunks; ++t) {
    const std::size_t lo = begin + t * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    ranges.emplace_back(lo, hi);
  }
  region.remaining = ranges.size();

  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      const auto [lo, hi] = ranges[t];
      queue_.emplace_back([&region, &body, cancel, lo, hi, t] {
        try {
          // The cancellation gate: a range that dequeues after the token
          // trips is skipped — no new work starts after cancel.  It still
          // runs the completion epilogue below so the waiting caller's
          // region resolves normally.
          if (!CancelToken::cancelled(cancel)) body(lo, hi, t);
        } catch (...) {
          const std::lock_guard<std::mutex> rl(region.mu);
          if (!region.first_error) region.first_error = std::current_exception();
        }
        {
          // Notify under the lock: once the waiter observes remaining == 0 it
          // returns and destroys `region`, so the cv must not be touched
          // after this critical section.
          const std::lock_guard<std::mutex> rl(region.mu);
          --region.remaining;
          region.done.notify_all();
        }
      });
    }
  }
  cv_.notify_all();

  // Help-while-wait: run queued tasks (ours or a sibling region's) until our
  // region completes; sleep only when the queue is empty.
  for (;;) {
    {
      const std::lock_guard<std::mutex> rl(region.mu);
      if (region.remaining == 0) break;
    }
    if (!try_run_one()) {
      std::unique_lock<std::mutex> rl(region.mu);
      region.done.wait(rl, [&region] { return region.remaining == 0; });
    }
  }
  if (region.first_error) std::rethrow_exception(region.first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bfly
