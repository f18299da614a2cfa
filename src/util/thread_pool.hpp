// A persistent worker pool for the routing simulators and bulk verifiers.
//
// The original parallel_for_chunked spawned (and joined) fresh std::threads on
// every call; fine for one 2M-packet census, ruinous for sweeps that issue
// hundreds of small parallel regions.  ThreadPool keeps its workers alive
// across submissions, so a region costs two mutex handoffs instead of N
// thread creations.
//
// Scheduling is help-while-wait: the submitting thread does not sleep until
// its region completes — it pulls queued tasks (its own or anyone else's) and
// executes them inline, only blocking when the queue is empty and its region
// is still running elsewhere.  Two consequences:
//
//   * Nested submissions cannot deadlock.  A worker that submits a region
//     from inside a task drains the queue itself, so progress never depends
//     on a worker that is blocked waiting.
//   * A pool of W workers gives W+1 runnable lanes while a caller waits,
//     and ThreadPool(1) still overlaps caller and worker.
//
// Determinism contract: the pool schedules *which thread* runs a chunk, never
// *what* the chunk computes.  run_chunked() partitions exactly like the old
// parallel_for_chunked (ceil-divided contiguous ranges, tid = range index),
// so any caller that keys its work off (chunk range, tid) — the fixed-chunk
// seeding discipline used throughout routing — produces bit-identical results
// for every pool size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace bfly {

class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (0 = default_thread_count()).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Statically partitions [begin, end) into at most `max_chunks` contiguous
  /// ranges (ceil-divided, same arithmetic as the historical
  /// parallel_for_chunked) and runs `body(range_begin, range_end, range_index)`
  /// for each, blocking until all complete.  Exceptions thrown by ranges are
  /// rethrown in the caller (first one captured wins); the remaining ranges
  /// still run to completion.  Safe to call from inside a pool task.
  ///
  /// When `cancel` is non-null and becomes cancelled, ranges that have not
  /// started yet are skipped entirely (their body never runs); ranges already
  /// running finish on their own — pass the same token into the body if it
  /// should stop early too.  run_chunked still waits for every range to
  /// start-or-skip, so stack captures stay valid and the partition always
  /// fully resolves.  Cancellation never throws; the caller inspects the
  /// token to learn work was skipped.
  void run_chunked(std::size_t begin, std::size_t end, std::size_t max_chunks,
                   const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                   const CancelToken* cancel = nullptr);

  /// The process-wide pool (default_thread_count() workers, created on first
  /// use) that parallel_for_chunked and the sweep drivers submit to.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Pops and runs one queued task; false when the queue was empty.
  bool try_run_one();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bfly
