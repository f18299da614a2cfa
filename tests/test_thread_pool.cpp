// The persistent worker pool behind parallel_for_chunked and the sweep
// drivers.  Load-bearing contracts:
//   * Reuse — one pool serves many submissions (that is its reason to exist).
//   * Partition determinism — run_chunked splits [begin, end) exactly like
//     the historical parallel_for_chunked, so chunk-keyed work is bitwise
//     identical for every pool size.
//   * Exceptions — a throwing range surfaces in the caller (first captured
//     wins) and the pool stays usable afterwards.
//   * Nesting — submitting from inside a pool task must not deadlock
//     (help-while-wait scheduling).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace bfly {
namespace {

/// Sums i*i over [0, n) chunk-by-chunk through `pool`, tagging each range
/// with its tid so the test can also check the partition layout.
u64 chunked_square_sum(ThreadPool& pool, std::size_t n, std::size_t max_chunks,
                       std::vector<std::size_t>* tids = nullptr) {
  std::vector<u64> partial(max_chunks, 0);
  std::vector<std::size_t> seen(max_chunks, ~std::size_t{0});
  pool.run_chunked(0, n, max_chunks, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
    u64 s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<u64>(i) * i;
    partial[tid] = s;
    seen[tid] = tid;
  });
  if (tids != nullptr) *tids = seen;
  u64 total = 0;
  for (const u64 p : partial) total += p;
  return total;
}

u64 serial_square_sum(std::size_t n) {
  u64 total = 0;
  for (std::size_t i = 0; i < n; ++i) total += static_cast<u64>(i) * i;
  return total;
}

TEST(ThreadPool, ReusedAcrossManySubmissions) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t n = 100 + round * 7;
    EXPECT_EQ(chunked_square_sum(pool, n, 4), serial_square_sum(n)) << round;
  }
}

TEST(ThreadPool, PartitionMatchesHistoricalChunking) {
  // 10 elements over at most 4 chunks: ceil(10/4) = 3 -> ranges
  // [0,3) [3,6) [6,9) [9,10), tids 0..3.
  ThreadPool pool(2);
  std::vector<std::vector<std::size_t>> ranges(4);
  pool.run_chunked(0, 10, 4, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
    ranges[tid] = {lo, hi};
  });
  EXPECT_EQ(ranges[0], (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(ranges[1], (std::vector<std::size_t>{3, 6}));
  EXPECT_EQ(ranges[2], (std::vector<std::size_t>{6, 9}));
  EXPECT_EQ(ranges[3], (std::vector<std::size_t>{9, 10}));
}

TEST(ThreadPool, PoolSizeDoesNotChangeResults) {
  // The partition (and therefore anything keyed off ranges/tids) depends only
  // on (begin, end, max_chunks), never on how many workers execute it.
  const std::size_t n = 1000;
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  std::vector<std::size_t> tids_one;
  std::vector<std::size_t> tids_four;
  const u64 a = chunked_square_sum(one, n, 8, &tids_one);
  const u64 b = chunked_square_sum(two, n, 8);
  const u64 c = chunked_square_sum(four, n, 8, &tids_four);
  EXPECT_EQ(a, serial_square_sum(n));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(tids_one, tids_four);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_chunked(0, 8, 8,
                       [&](std::size_t lo, std::size_t, std::size_t) {
                         ++ran;
                         if (lo == 3) throw std::runtime_error("range 3 failed");
                       }),
      std::runtime_error);
  // All ranges still ran (the pool does not cancel siblings)...
  EXPECT_EQ(ran.load(), 8);
  // ...and the pool is fully usable afterwards.
  EXPECT_EQ(chunked_square_sum(pool, 500, 4), serial_square_sum(500));
}

TEST(ThreadPool, FirstCapturedExceptionWins) {
  // Every range throws; exactly one exception must surface and it must be
  // one of the thrown ones (not a mangled or dropped state).
  ThreadPool pool(2);
  try {
    pool.run_chunked(0, 4, 4, [](std::size_t lo, std::size_t, std::size_t) {
      throw std::runtime_error("range " + std::to_string(lo));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("range ", 0), 0u) << e.what();
  }
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // A range body that itself submits a region: help-while-wait means the
  // inner region drains even when every worker is busy in the outer one.
  ThreadPool pool(2);
  std::vector<u64> inner(4, 0);
  pool.run_chunked(0, 4, 4, [&](std::size_t lo, std::size_t, std::size_t tid) {
    inner[tid] = chunked_square_sum(pool, 100 + lo, 4);
  });
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(inner[t], serial_square_sum(100 + t));
  }
}

TEST(ThreadPool, EmptyAndSingleChunkRuns) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run_chunked(5, 5, 4, [&](std::size_t, std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);  // empty range: body never invoked
  // max_chunks = 1 runs inline on the caller.
  std::vector<std::size_t> tids;
  EXPECT_EQ(chunked_square_sum(pool, 100, 1, &tids), serial_square_sum(100));
  EXPECT_EQ(tids, std::vector<std::size_t>{0});
}

TEST(ThreadPool, PreCancelledTokenRunsNoBodies) {
  ThreadPool pool(2);
  CancelToken token;
  token.request_cancel();
  std::atomic<int> ran{0};
  pool.run_chunked(0, 16, 16,
                   [&](std::size_t, std::size_t, std::size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0);
  // The pool is untouched by a pre-cancelled submission.
  EXPECT_EQ(chunked_square_sum(pool, 200, 4), serial_square_sum(200));
}

TEST(ThreadPool, MidRunCancelSkipsUnstartedRanges) {
  // The first body to run cancels the token.  Bodies already past their gate
  // (at most one per executor: 2 workers + the helping caller) may still run;
  // every not-yet-started range must be skipped, and run_chunked must still
  // return normally (the completion epilogue runs for skipped ranges too).
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<int> ran{0};
  pool.run_chunked(
      0, 64, 64,
      [&](std::size_t, std::size_t, std::size_t) {
        ++ran;
        token.request_cancel();
      },
      &token);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 3);  // 2 workers + helping caller
  EXPECT_TRUE(token.cancelled());
  // Cancellation is per-submission state, not pool state: the same pool (and
  // a fresh token) runs everything again.
  CancelToken fresh;
  std::atomic<int> ran2{0};
  pool.run_chunked(0, 16, 16,
                   [&](std::size_t, std::size_t, std::size_t) { ++ran2; }, &fresh);
  EXPECT_EQ(ran2.load(), 16);
}

TEST(ThreadPool, DeadlineExpiryCancelsToken) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.set_deadline_after(std::chrono::nanoseconds(1));
  // A 1ns budget is in the past by the time we poll; expired() implies
  // cancelled() for every consumer (pool gates and engine polls alike).
  while (!token.expired()) {
  }
  EXPECT_TRUE(token.cancelled());
  token.clear_deadline();
  EXPECT_FALSE(token.cancelled());
}

TEST(ThreadPool, StatsCountEveryExecutedTask) {
  // Utilization accounting: every range body lands in either a worker slot
  // or the caller-assist counter, and the total is exact — run_chunked does
  // not return before all its ranges complete, so nothing is in flight when
  // stats() is read.
  ThreadPool pool(3);
  const ThreadPool::Stats before = pool.stats();
  EXPECT_EQ(before.tasks_executed, 0u);
  EXPECT_EQ(before.assists, 0u);
  ASSERT_EQ(before.worker_tasks.size(), 3u);
  ASSERT_EQ(before.worker_busy_us.size(), 3u);

  for (std::size_t round = 0; round < 10; ++round) {
    EXPECT_EQ(chunked_square_sum(pool, 2000, 8), serial_square_sum(2000));
  }
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.tasks_executed, 80u);  // 10 rounds x 8 ranges, none lost
  u64 from_slots = after.assists;
  for (const u64 t : after.worker_tasks) from_slots += t;
  EXPECT_EQ(from_slots, after.tasks_executed);
}

TEST(ThreadPool, StatsAreMonotone) {
  ThreadPool pool(2);
  chunked_square_sum(pool, 500, 4);
  const ThreadPool::Stats a = pool.stats();
  chunked_square_sum(pool, 500, 4);
  const ThreadPool::Stats b = pool.stats();
  EXPECT_EQ(b.tasks_executed, a.tasks_executed + 4);
  EXPECT_GE(b.assists, a.assists);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_GE(b.worker_tasks[w], a.worker_tasks[w]);
    EXPECT_GE(b.worker_busy_us[w], a.worker_busy_us[w]);
  }
}

TEST(ThreadPool, AssistsAreVisibleWhenTheCallerHelps) {
  // Two ranges that each spin until both have started: a single-worker pool
  // can only satisfy that with the caller helping (help-while-wait), so
  // exactly one range runs on the worker and one as a caller assist.
  ThreadPool pool(1);
  std::atomic<int> started{0};
  pool.run_chunked(0, 2, 2, [&](std::size_t, std::size_t, std::size_t) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_EQ(stats.assists, 1u);
  EXPECT_EQ(stats.worker_tasks[0], 1u);
  EXPECT_GT(stats.worker_busy_us.size(), 0u);
}

TEST(ThreadPool, CountsReadAfterRunChunkedIncludeEveryRange) {
  // The stats() contract under reuse: the two-range scenario above, repeated
  // on one pool.  The range that resolves the region may be the worker's, so
  // its task must be counted by the time run_chunked returns.
  ThreadPool pool(1);
  constexpr u64 kRounds = 20'000;
  u64 short_rounds = 0;
  for (u64 round = 1; round <= kRounds; ++round) {
    std::atomic<int> started{0};
    pool.run_chunked(0, 2, 2, [&](std::size_t, std::size_t, std::size_t) {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
    });
    const ThreadPool::Stats stats = pool.stats();
    if (stats.tasks_executed != 2 * round || stats.assists != round ||
        stats.worker_tasks[0] != round) {
      ++short_rounds;
    }
  }
  EXPECT_EQ(short_rounds, 0u);
}

TEST(ThreadPool, ParallelForChunkedForwardsToken) {
  CancelToken token;
  token.request_cancel();
  std::atomic<int> ran{0};
  parallel_for_chunked(0, 32, 8,
                       [&](std::size_t, std::size_t, std::size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, SharedPoolBacksParallelForChunked) {
  // parallel_for_chunked now delegates to the shared pool; its results (and
  // partition) must match a private pool's.
  const std::size_t n = 777;
  std::vector<u64> partial(5, 0);
  parallel_for_chunked(0, n, 5, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
    u64 s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<u64>(i) * i;
    partial[tid] = s;
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), u64{0}), serial_square_sum(n));
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

}  // namespace
}  // namespace bfly
