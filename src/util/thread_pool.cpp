#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/parallel.hpp"

namespace bfly {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  slots_ = std::make_unique<WorkerSlot[]>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
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

void ThreadPool::worker_loop(std::size_t worker) {
  WorkerSlot& slot = slots_[worker];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Counted before the task runs: the task's own epilogue is what lets its
    // run_chunked caller return, so a count taken afterwards could still be
    // missing when that caller reads stats().  Relaxed: each worker touches
    // only its own slot, and the region's mutex orders this add before the
    // caller's return.
    slot.tasks.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const auto t1 = std::chrono::steady_clock::now();
    slot.busy_us.fetch_add(
        static_cast<u64>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count()),
        std::memory_order_relaxed);
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
  assists_.fetch_add(1, std::memory_order_relaxed);  // before the task, as in worker_loop
  task();
  return true;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.assists = assists_.load(std::memory_order_relaxed);
  stats.tasks_executed = stats.assists;
  stats.worker_tasks.reserve(workers_.size());
  stats.worker_busy_us.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const u64 tasks = slots_[i].tasks.load(std::memory_order_relaxed);
    stats.worker_tasks.push_back(tasks);
    stats.worker_busy_us.push_back(slots_[i].busy_us.load(std::memory_order_relaxed));
    stats.tasks_executed += tasks;
  }
  return stats;
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
