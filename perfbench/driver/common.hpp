// Shared plumbing for the perfbench driver: clocks, the benchmark's own span
// tracer, order statistics with a sample-support rule, the operation ledger
// that feeds ok_share, and the metric list printed at exit.
//
// The driver never installs an obs::Registry: every span recorded here is
// recorded by the benchmark, around calls into the library's public
// functions, so timed runs see the library exactly as an embedding program
// with observability off would.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

/// The benchmark's own input generator (SplitMix64), so the inputs a seed
/// names never depend on the library's RNG code.
class InputRng {
 public:
  explicit InputRng(u64 seed) : state_(seed) {}
  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Seeds stay below 2^53 so they survive any JSON round trip exactly.
  u64 seed() { return next() >> 11; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  u64 below(u64 bound) { return next() % bound; }

 private:
  u64 state_;
};

/// Seed of an independent stream for (seed, stream): SplitMix64 streams
/// seeded a fixed distance apart overlap, so stream ids are hashed first.
inline u64 stream_seed(u64 seed, u64 stream) {
  return InputRng(seed ^ InputRng(stream * 0x632be59bd9b4e019ULL + 1).next()).next();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans at exit
  std::string bflyd;      ///< path of the bflyd binary (serve workload)
  unsigned nproc = 1;     ///< CPUs this process may run on (sched_getaffinity)
  /// Run only the set-up and report setup_s, measured from process_start.
  bool setup_only = false;
  /// When the launcher spawned this process (--setup-only), else main()'s entry.
  Clock::time_point process_start;
};

/// One recorded span: name, interval, the span that caused it, and the exact
/// work count the caller attached (hops, wires, points, requests, ...).
struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;
  double t0_us = 0.0;
  double t1_us = 0.0;
  u64 tid = 0;
  u64 count = 0;
};

/// Span store kept in memory and written out once, when the run ends.
/// Disabled tracers record nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  u64 begin() {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void record(const char* name, u64 id, u64 parent, Clock::time_point t0, Clock::time_point t1,
              u64 tid, u64 count);
  /// Writes a Chrome trace-event file (ph "X" events; args carry id, parent
  /// and count).  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  u64 next_id_ = 0;
};

/// RAII span: times its scope and records it on finish() or destruction.
/// finish() returns the measured duration in seconds whether or not the
/// tracer is enabled, so probes use one code path for timing and tracing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, u64 parent = 0, u64 tid = 0)
      : tracer_(tracer), name_(name), id_(tracer.begin()), parent_(parent), tid_(tid),
        t0_(Clock::now()) {}
  ~ScopedSpan() {
    if (!done_) finish(0);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  u64 id() const { return id_; }
  double finish(u64 count) {
    const Clock::time_point t1 = Clock::now();
    done_ = true;
    tracer_.record(name_, id_, parent_, t0_, t1, tid_, count);
    return seconds_between(t0_, t1);
  }

 private:
  Tracer& tracer_;
  const char* name_;
  u64 id_;
  u64 parent_;
  u64 tid_;
  Clock::time_point t0_;
  bool done_ = false;
};

double median(std::vector<double> v);

/// The run's figure for a statistic taken once per window (a repetition, a
/// block of samples, a second of traffic): the 10th percentile (nearest
/// rank) of the per-window values, or the 90th when higher is better.  The
/// machine's speed drops by up to 2x in spells of seconds to minutes that
/// its neighbours cause; a spell only ever makes windows slower, so the
/// quieter windows read the program and not the spell, and a change to the
/// program still moves them as it moves every window.
double quiet_quantile(const std::vector<double>& per_window, bool higher_is_better = false);

/// Nearest-rank percentile of `v` (q in (0, 1]).  `beyond` receives the
/// number of samples strictly above the chosen rank.
double percentile(std::vector<double> v, double q, std::size_t* beyond = nullptr);

/// Counts operations and the ones whose output failed a check; ok_share is
/// (attempted - failed) / attempted.  The first few failure messages are
/// kept for the report.
class Ledger {
 public:
  void attempt(u64 n = 1) { attempted_ += n; }
  /// Records one operation: counts it, and counts it failed when !ok.
  bool op(bool ok, const std::string& what);
  /// Same; the message becomes a string only on failure, so a timed loop's
  /// checks allocate nothing between the calls they time.
  bool op(bool ok, const char* what) {
    return ok ? op(true, std::string()) : op(false, std::string(what));
  }
  /// A whole-run check that is not itself an operation (e.g. a ledger that
  /// must balance): a failure marks the run incorrect.
  bool check(bool ok, const std::string& what);
  /// Adds a worker's ledger (after the worker has joined).
  void merge(const Ledger& other);

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && run_checks_failed_ == 0 && attempted_ > 0; }
  double ok_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void note(const std::string& what);
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 run_checks_failed_ = 0;
  std::vector<std::string> errors_;
};

/// Ordered name -> (value, unit) list, plus a free-form sample-count note for
/// every percentile (printed by run.py next to the result line).
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  std::vector<std::pair<std::string, u64>> samples;

  void set(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
  void note_samples(const std::string& name, u64 n) { samples.emplace_back(name, n); }
};

/// Percentile that must have at least `min_beyond` samples above it; records
/// the sample count in `metrics` and fails the run through `ledger` when the
/// support is short.
double supported_percentile(const std::vector<double>& v, double q, const std::string& name,
                            Metrics& metrics, Ledger& ledger, std::size_t min_beyond = 10);

/// VmHWM of /proc/<pid>/status in MiB ("self" for this process); 0 if
/// unreadable.
double vm_hwm_mb(const std::string& pid = "self");

/// Workload entry points.  Each appends its end-to-end metrics (untraced run),
/// its per-layer metrics (traced run) or setup_s alone (set-up-only run) and
/// returns normally; checks go through the ledger.
void run_curve(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics);
void run_layout(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics);
void run_serve(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics);

/// Every per-layer metric name with its unit, in report order.  A traced run
/// reports all of them; the layers a workload never calls read 0 there.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Fills every per-layer metric the workload did not measure with 0.
void complete_layer_metrics(Metrics& metrics);

}  // namespace perfbench
