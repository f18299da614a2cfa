// Shared scaffolding for the bench binaries.
//
// Contract: every bench binary writes exactly one machine-readable JSON run
// report (schema version 1, see obs/report.hpp) to *stdout* and keeps all
// human-oriented output — the reproduction tables — on *stderr*.
// `bench_routing ... > run.json` therefore always yields a parseable
// document, and BENCH_*.json trajectories can be captured by plain shell
// redirection.  The benches reproduce the paper's tables and gate their
// exact counters; they time nothing (perfbench/ is the timer).
#pragma once

#include <cstdlib>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/fileio.hpp"
#include "util/parallel.hpp"

namespace bfly::bench {

/// Prints `message` and the bench's usage line to stderr and exits with
/// status 2, the usage-error contract bflyreport uses.
[[noreturn]] inline void usage_error(const char* argv0, const char* usage,
                                     const std::string& message) {
  std::cerr << "error: " << message << "\nusage: " << argv0 << usage << "\n";
  std::exit(2);
}

/// The whole command line of a bench that sweeps: the worker-thread
/// override, spelled `--threads N`, `--threads=N`, or the $BFLY_THREADS
/// environment variable (the flag wins when both are given).  Returns 0 when
/// no override is present (callers pass that through to
/// SweepRunOptions.threads, which means "auto").  Any other argument, or a
/// malformed value — "4x", "0", "-2", "" — is a usage error (exit 2), never
/// silently ignored.
inline std::size_t threads_override(int argc, char** argv) {
  constexpr const char* kUsage = " [--threads N]";
  const auto reject = [argv](const std::string& source, const char* text) {
    usage_error(argv[0], kUsage, source + " must be an integer in [1, 4096], got '" + text + "'");
  };
  std::size_t threads = 0;
  if (const char* env = std::getenv("BFLY_THREADS")) {
    if (!parse_thread_count(env, &threads)) reject("$BFLY_THREADS", env);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--threads") {
      if (i + 1 >= argc) reject("--threads", "");
      value = argv[++i];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = argv[i] + std::string("--threads=").size();
    } else {
      usage_error(argv[0], kUsage, "unknown argument '" + arg + "'");
    }
    if (!parse_thread_count(value, &threads)) reject("--threads", value);
  }
  return threads;
}

/// The command line of a bench that takes no arguments: any argument is a
/// usage error (exit 2).
inline void no_arguments(int argc, char** argv) {
  if (argc > 1) usage_error(argv[0], "", std::string("unknown argument '") + argv[1] + "'");
}

/// Installs a process-wide metrics/trace registry for the duration of main().
/// Construct first thing in main(); every instrumented library call after
/// that records into it.
class BenchSession {
 public:
  explicit BenchSession(std::string name) : scoped_(&registry_) {
    options_.name = std::move(name);
  }

  obs::Registry& registry() { return registry_; }

  /// Run parameters for the report's "config" object.
  void config(const std::string& key, json::Value value) {
    options_.config.set(key, std::move(value));
  }
  void config(const std::string& key, double number) {
    options_.config.set(key, json::Value::number(number));
  }
  void config(const std::string& key, const std::string& text) {
    options_.config.set(key, json::Value::string(text));
  }

  /// Measured artifact facts for the report's "artifact_stats" object.
  void artifact(const std::string& key, json::Value value) {
    options_.artifact_stats.set(key, std::move(value));
  }
  void artifact(const std::string& key, double number) {
    options_.artifact_stats.set(key, json::Value::number(number));
  }

  /// Attaches one representative sweep point's cycle-resolved telemetry
  /// (TimeSeries::to_json()) as the report's optional "timeseries" block,
  /// bumping the emitted schema to version 2 (obs/report.hpp).  Skip the
  /// call — e.g. when a checkpoint replay left the series empty — and the
  /// report stays version 1.
  void timeseries(json::Value block) { options_.timeseries = std::move(block); }

  /// Attaches one representative sweep point's per-packet flight traces
  /// (FlightRecorder::to_json()) as the report's optional "flight" block —
  /// same schema-versioning rule as timeseries().
  void flight(json::Value block) { options_.flight = std::move(block); }

  /// Exports interpolated percentiles of a named registry histogram into
  /// artifact_stats as `"<key>": {"p50": ..., "p95": ..., "p99": ...,
  /// "p999": ...}` so the values participate in baseline diffs as plain
  /// numeric leaves.  Call after the workload has populated the histogram;
  /// throws InvalidArgument when no histogram with that name was recorded.
  void artifact_percentiles(const std::string& key, const std::string& histogram) {
    const obs::MetricsSnapshot snap = registry_.metrics_snapshot();
    for (const obs::MetricsSnapshot::Hist& h : snap.histograms) {
      if (h.name != histogram) continue;
      json::Value percentiles = json::Value::object();
      percentiles.set("p50", json::Value::number(h.percentile(0.50)));
      percentiles.set("p95", json::Value::number(h.percentile(0.95)));
      percentiles.set("p99", json::Value::number(h.percentile(0.99)));
      percentiles.set("p999", json::Value::number(h.percentile(0.999)));
      artifact(key, std::move(percentiles));
      return;
    }
    // A resumed sweep replays outcomes from the checkpoint without re-running
    // the engines, so an instrumented histogram can legitimately be absent
    // (or thin).  Skip the export instead of aborting the bench; the gate
    // runs without $BFLY_CHECKPOINT_DIR, so CI always gets the full metrics.
    if (sweep_replayed_) return;
    throw InvalidArgument("no histogram named '" + histogram + "' in this run");
  }

  /// Drives a sweep grid through exec::run_sweep_resumable — checkpointed
  /// under $BFLY_CHECKPOINT_DIR/<bench>.<tag>.ckpt when that variable is set,
  /// plain otherwise — folds the run's status into the report, and returns
  /// the outcome vector (bitwise identical to saturation_sweep when the run
  /// completes).  `tag` distinguishes a bench's sweeps from each other.
  std::vector<SweepOutcome> resilient_sweep(const std::string& tag,
                                            std::span<const SweepPoint> points) {
    exec::SweepRunOptions opt;
    opt.threads = threads;
    if (const char* dir = std::getenv("BFLY_CHECKPOINT_DIR")) {
      if (dir[0] != '\0') {
        opt.checkpoint_path = std::string(dir) + "/" + options_.name + "." + tag + ".ckpt";
      }
    }
    exec::SweepRun run = exec::run_sweep_resumable(points, opt);
    sweep_status(run);
    return std::move(run.outcomes);
  }

  /// Folds a resilient sweep's outcome into the report's status triple:
  /// point counts accumulate across sweeps, and the status only ever gets
  /// worse (complete < partial < cancelled).  Call once per
  /// exec::run_sweep_resumable the bench drives.
  void sweep_status(const exec::SweepRun& run) {
    options_.points_completed += run.num_completed;
    options_.points_total += static_cast<u64>(run.outcomes.size());
    if (run.num_replayed > 0) sweep_replayed_ = true;
    const auto rank = [](const std::string& s) { return s == "cancelled" ? 2 : s == "partial" ? 1 : 0; };
    const std::string next = exec::to_string(run.status);
    if (rank(next) > rank(options_.status)) options_.status = next;
  }

  /// The single-line JSON run report on stdout.  Call last.  When the
  /// BFLY_REPORT_FILE environment variable names a path, the same line is
  /// also written there crash-safely (atomic tmp+rename) — shell redirection
  /// of stdout cannot be torn-proof, the atomic file is.
  void emit_report() {
    std::ostringstream line;
    obs::write_report_line(line, registry_, options_);
    std::cout << line.str();
    if (const char* path = std::getenv("BFLY_REPORT_FILE")) {
      if (path[0] != '\0') util::atomic_write_file(path, line.str());
    }
  }

  /// The report written crash-safely to `path` (atomic tmp+rename) instead
  /// of stdout.
  void emit_report_file(const std::string& path) {
    std::ostringstream line;
    obs::write_report_line(line, registry_, options_);
    util::atomic_write_file(path, line.str());
  }

  /// Worker-thread override applied to every resilient_sweep (0 = auto, i.e.
  /// default_thread_count()).  Set from threads_override() in main() before
  /// the first sweep.  Per-point outcomes are bitwise independent of this,
  /// so benches record it in config as run metadata, not as part of the
  /// result's identity.
  std::size_t threads = 0;

 private:
  obs::Registry registry_;
  obs::ScopedRegistry scoped_;
  obs::ReportOptions options_;
  bool sweep_replayed_ = false;
};

}  // namespace bfly::bench
