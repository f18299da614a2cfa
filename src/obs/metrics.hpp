// bfly::obs — the measurement substrate: a thread-safe metrics registry
// (counters, gauges, fixed-bucket histograms) plus the trace-event sink the
// RAII span tracer (obs/trace.hpp) writes into.
//
// Design constraints, in order:
//  1. Near-zero cost when disabled.  The global Registry pointer defaults
//     to nullptr and every helper null-checks it, so an uninstrumented
//     process pays one predictable branch per *hoisted handle lookup*, not
//     per event.
//  2. Cheap hot-path increments.  Handles (Counter*, Histogram*) are stable
//     pointers; callers look them up once outside their loops and then do
//     relaxed atomic adds — safe from any thread, no lock, no contention
//     beyond the cache line.  Suitable for the multithreaded link-load
//     census and the per-cycle routing simulator.
//  3. Exact export.  Snapshots are taken under the registry lock; histogram
//     bucket counts always sum to the observation count, so downstream
//     consumers can reconstruct totals (test_obs round-trips this).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"

namespace bfly::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Last-write-wins instantaneous value (sizes, ratios, configuration).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are strictly increasing inclusive upper
/// bounds; observations above the last bound land in an overflow bucket, so
/// the bucket counts always sum to count().
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Bucket `v` falls into; bounds().size() is the overflow bucket.
  std::size_t bucket_index(double v) const {
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  }

  /// Bulk merge of pre-bucketed observations: `counts` must have
  /// bounds().size() + 1 entries (see LocalHistogram); `sum` is the value sum
  /// of those observations.
  void merge(std::span<const u64> counts, double sum);

  /// bounds().size() + 1 buckets (trailing overflow bucket).
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<u64> bucket_counts() const;
  u64 count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// estimate_percentile() over this histogram's current bucket counts.
  double percentile(double q) const;

  /// [start, start+step, ..., start+(count-1)*step]
  static std::vector<double> linear_bounds(double start, double step, std::size_t count);
  /// [start, start*factor, ..., start*factor^(count-1)]
  static std::vector<double> exponential_bounds(double start, double factor, std::size_t count);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<u64>> buckets_;
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One begin/end marker recorded by a SpanScope (obs/trace.hpp).  `name`
/// must point at storage outliving the registry — in practice a string
/// literal at the BFLY_TRACE_SCOPE call site.
struct TraceEvent {
  const char* name = "";
  char phase = 'B';  ///< 'B' = span begin, 'E' = span end
  double ts_us = 0.0;
  u64 tid = 0;
};

/// A matched begin/end pair, produced by Registry::completed_spans().
struct CompletedSpan {
  std::string name;
  u64 tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;  ///< nesting depth within its thread (0 = outermost)
};

/// Percentile estimate (q in [0, 1]) interpolated from fixed-bucket histogram
/// data: `counts` has bounds.size() + 1 entries (trailing overflow bucket).
/// The CDF is taken piecewise linear across each bucket's value range — the
/// first bucket spans [min(0, bounds[0]), bounds[0]] — so distributions that
/// land one distinct value per bucket are recovered exactly.  Mass in the
/// unbounded overflow bucket is reported as bounds.back() (a lower bound on
/// the true percentile).  Returns 0 when there are no observations.
double estimate_percentile(std::span<const double> bounds, std::span<const u64> counts,
                           double q);

struct MetricsSnapshot {
  std::vector<std::pair<std::string, u64>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<u64> counts;
    u64 count = 0;
    double sum = 0.0;

    double percentile(double q) const { return estimate_percentile(bounds, counts, q); }
  };
  std::vector<Hist> histograms;
};

/// The per-run sink for metrics and trace events.  Create one per process /
/// bench run, install it with ScopedRegistry, snapshot at the end.
class Registry {
 public:
  Registry() : t0_(std::chrono::steady_clock::now()) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Named-handle lookup: creates on first use, returns the same stable
  /// pointer thereafter.  Takes the registry lock — hoist out of hot loops.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// `bounds` are used on first creation only; later lookups of the same
  /// name return the existing histogram regardless of the bounds argument.
  Histogram* histogram(std::string_view name, std::vector<double> bounds);

  /// Microseconds since this registry was created (steady clock).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

  void record(TraceEvent ev);

  MetricsSnapshot metrics_snapshot() const;
  std::vector<TraceEvent> trace_events() const;
  /// Pairs up begin/end events per thread (events from one thread are
  /// recorded in order, so a per-thread stack reconstructs the nesting).
  std::vector<CompletedSpan> completed_spans() const;

 private:
  const std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<TraceEvent> events_;
};

namespace detail {
inline std::atomic<Registry*> g_registry{nullptr};
}  // namespace detail

/// The process-wide registry instrumentation reports into; nullptr (the
/// default) disables all recording.
inline Registry* registry() { return detail::g_registry.load(std::memory_order_acquire); }

inline void set_registry(Registry* r) {
  detail::g_registry.store(r, std::memory_order_release);
}

/// RAII install/restore of the global registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* r) : previous_(registry()) { set_registry(r); }
  ~ScopedRegistry() { set_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

/// Hoistable handle lookups: nullptr when no registry is installed, so the
/// matching record helpers below no-op.
inline Counter* get_counter(std::string_view name) {
  Registry* r = registry();
  return r ? r->counter(name) : nullptr;
}
inline Gauge* get_gauge(std::string_view name) {
  Registry* r = registry();
  return r ? r->gauge(name) : nullptr;
}
inline Histogram* get_histogram(std::string_view name, std::vector<double> bounds) {
  Registry* r = registry();
  return r ? r->histogram(name, std::move(bounds)) : nullptr;
}

inline void add(Counter* c, u64 delta = 1) {
  if (c) c->add(delta);
}
inline void set(Gauge* g, double v) {
  if (g) g->set(v);
}
inline void observe(Histogram* h, double v) {
  if (h) h->observe(v);
}

/// Single-thread accumulation buffer for one histogram: bucket locally in a
/// hot loop (no atomics, no shared cache lines), flush once at the end.
/// Null-tolerant like the helpers above — with a null target every call is a
/// predictable branch.
class LocalHistogram {
 public:
  explicit LocalHistogram(Histogram* target)
      : target_(target), counts_(target ? target->bounds().size() + 1 : 0, 0) {}

  void observe(double v) {
    if (target_ == nullptr) return;
    ++counts_[target_->bucket_index(v)];
    sum_ += v;
  }

  /// Merges the buffered counts into the target and resets the buffer.
  void flush() {
    if (target_ == nullptr) return;
    target_->merge(counts_, sum_);
    std::fill(counts_.begin(), counts_.end(), u64{0});
    sum_ = 0.0;
  }

 private:
  Histogram* target_;
  std::vector<u64> counts_;
  double sum_ = 0.0;
};

/// Small dense id for the calling thread (1, 2, ... in first-use order) —
/// stable within a process and friendlier in trace viewers than hashed
/// std::thread::id values.
u64 current_thread_id();

}  // namespace bfly::obs
