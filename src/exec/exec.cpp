#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "exec/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/fileio.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bfly::exec {

const char* to_string(SweepStatus status) {
  switch (status) {
    case SweepStatus::kComplete:
      return "complete";
    case SweepStatus::kPartial:
      return "partial";
    case SweepStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

double retry_backoff_ms(const RetryPolicy& retry, std::size_t index, int attempt) {
  BFLY_REQUIRE(retry.backoff_base_ms >= 0.0 && retry.backoff_base_ms <= retry.backoff_cap_ms,
               "retry policy requires 0 <= backoff_base_ms <= backoff_cap_ms");
  double delay = retry.backoff_base_ms;
  for (int i = 1; i < attempt; ++i) {
    delay *= retry.backoff_factor;
    if (delay >= retry.backoff_cap_ms) break;
  }
  delay = std::clamp(delay, 0.0, retry.backoff_cap_ms);
  const u64 stream = u64{0x9e3779b97f4a7c15} * (static_cast<u64>(index) + 1);
  SplitMix64 sm(retry.jitter_seed ^ stream ^ static_cast<u64>(attempt));
  const double jitter = 0.5 + static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  // The jitter spreads concurrent retries apart; the clamp keeps the promise
  // that no delay ever leaves [base, cap].
  return std::clamp(delay * jitter, retry.backoff_base_ms, retry.backoff_cap_ms);
}

namespace {

/// Sleeps ~`ms` in <= 10 ms slices, polling the token between slices: a
/// backoff must never delay cancellation by more than one slice.  Returns
/// false when the token tripped.
bool interruptible_sleep_ms(double ms, const CancelToken* token) {
  using clock = std::chrono::steady_clock;
  const auto until = clock::now() + std::chrono::duration_cast<clock::duration>(
                                        std::chrono::duration<double, std::milli>(ms));
  while (clock::now() < until) {
    if (CancelToken::cancelled(token)) return false;
    const auto left = until - clock::now();
    std::this_thread::sleep_for(std::min<clock::duration>(left, std::chrono::milliseconds(10)));
  }
  return !CancelToken::cancelled(token);
}

/// Wall-clock milliseconds since the Unix epoch — telemetry-sink timestamps
/// only (progress/ETA rendering); never part of deterministic outcome state.
u64 wall_ms_now() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count());
}

/// Live-progress JSONL sink.  Appends are durable (fsync, at-most-one-torn-
/// tail) so `bflyreport watch` can tail the file across crashes; a sink I/O
/// failure disables further appends instead of failing the run — progress
/// streaming is advisory, unlike the checkpoint journal.
class TelemetrySink {
 public:
  explicit TelemetrySink(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void emit(json::Value record) {
    if (path_.empty()) return;
    record.set("t_ms", json::Value::number(wall_ms_now()));
    try {
      obs::append_telemetry_line(path_, record);
    } catch (const std::exception&) {
      path_.clear();
    }
  }

 private:
  std::string path_;
};

/// Up to `max_points` values of `channel`, evenly strided across the series
/// (first and last samples always included) — the sparkline payload of a
/// "samples" sink record.
json::Value spark_values(const obs::TimeSeries& ts, std::string_view channel,
                         std::size_t max_points = 32) {
  json::Value arr = json::Value::array();
  const std::size_t ch = ts.channel_index(channel);
  const std::size_t n = ts.num_samples();
  if (ch == obs::TimeSeries::npos || n == 0) return arr;
  const std::size_t k = std::min(n, max_points);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t row = k == 1 ? 0 : i * (n - 1) / (k - 1);
    arr.push_back(json::Value::number(ts.value(row, ch)));
  }
  return arr;
}

}  // namespace

SweepRun run_sweep_resumable(std::span<const SweepPoint> points,
                             const SweepRunOptions& options) {
  BFLY_TRACE_SCOPE("exec.run_sweep_resumable");
  BFLY_REQUIRE(options.retry.max_attempts >= 1, "retry.max_attempts must be >= 1");
  BFLY_REQUIRE(options.deadline_seconds >= 0.0, "deadline_seconds must be >= 0");
  for (std::size_t i = 0; i < points.size(); ++i) validate_sweep_point(points[i], i);

  // Hoist every exec.* handle up front: get_counter creates the counter at 0,
  // so a run report built after any resumable sweep carries the full metric
  // family even when nothing was retried or cancelled.
  obs::Counter* retries_ctr = obs::get_counter("exec.retries");
  obs::Counter* cancelled_ctr = obs::get_counter("exec.cancelled");
  obs::Counter* expired_ctr = obs::get_counter("exec.expired");
  obs::Counter* replayed_ctr = obs::get_counter("exec.replayed");
  obs::Counter* failed_ctr = obs::get_counter("exec.failed");

  CancelToken local_token;
  CancelToken* token = options.cancel != nullptr ? options.cancel : &local_token;
  if (options.deadline_seconds > 0.0) {
    token->set_deadline_after(std::chrono::duration<double>(options.deadline_seconds));
  }

  SweepRun run;
  run.outcomes.resize(points.size());
  run.completed.assign(points.size(), 0);

  // Resume: match checkpoint records to the grid by content key and replay.
  std::vector<std::string> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) keys[i] = sweep_point_key(points[i]);
  if (!options.checkpoint_path.empty()) {
    const CheckpointLoad ckpt = load_checkpoint(options.checkpoint_path);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto it = ckpt.outcomes.find(keys[i]);
      if (it == ckpt.outcomes.end()) continue;
      run.outcomes[i] = it->second;
      run.completed[i] = 1;
      ++run.num_replayed;
    }
    obs::add(replayed_ctr, run.num_replayed);
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (run.completed[i] == 0) pending.push_back(i);
  }

  TelemetrySink sink(!options.telemetry_path.empty() ? options.telemetry_path
                                                     : obs::telemetry_path_from_env());
  if (sink.enabled()) {
    json::Value start = json::Value::object();
    start.set("v", json::Value::number(u64{1}));
    start.set("type", json::Value::string("start"));
    start.set("total", json::Value::number(static_cast<u64>(points.size())));
    start.set("replayed", json::Value::number(run.num_replayed));
    start.set("pending", json::Value::number(static_cast<u64>(pending.size())));
    sink.emit(std::move(start));
  }

  std::mutex journal_mu;
  std::size_t journal_appends = 0;
  std::mutex error_mu;
  std::atomic<u64> retries{0};
  std::atomic<u64> failed{0};

  // Runs one grid point to completion: attempt -> backoff -> attempt, until
  // success, exhaustion, or cancellation.  Success records the outcome and
  // (durably) the checkpoint line; cancellation mid-engine discards the
  // partial outcome so only full, replay-safe results are ever recorded.
  const auto run_point = [&](std::size_t i) {
    const SweepPoint& p = points[i];
    for (int attempt = 1;; ++attempt) {
      if (token->cancelled()) return;
      SweepOutcome outcome;
      // Same per-point telemetry convention as saturation_sweep: a private
      // TimeSeries per attempt, installed only when the engine filled it, so
      // resumable runs match the plain sweep (and checkpoint replay) bitwise.
      obs::TimeSeries ts(std::max<u64>(p.telemetry_budget, 2));
      obs::TimeSeries* ts_ptr = p.telemetry_budget > 0 ? &ts : nullptr;
      // Flight traces follow the same private-per-attempt convention as the
      // timeseries; the shared make_flight_recorder derivation is what keeps
      // the sampled subset identical to a plain saturation_sweep run.
      obs::FlightRecorder flight = make_flight_recorder(p);
      obs::FlightRecorder* flight_ptr = flight.enabled() ? &flight : nullptr;
      try {
        if (options.before_point) options.before_point(i, attempt);
        // Engine dispatch (serial pristine/faulty, sharded, schedule base
        // state) lives in run_sweep_point — the same helper saturation_sweep
        // uses, so the two layers can never drift apart.
        outcome = run_sweep_point(p, token, ts_ptr, flight_ptr);
        // The token may have tripped mid-simulation, leaving a partial (or
        // even complete but indistinguishable) outcome: discard it — flight
        // traces included, so the journal never holds a torn trace.  The
        // point reruns on resume — cheap, and the only way to guarantee a
        // checkpoint never holds a truncated result.
        if (token->cancelled()) return;
      } catch (const std::exception& e) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (run.first_error.empty()) run.first_error = e.what();
        }
        if (attempt >= options.retry.max_attempts) {
          failed.fetch_add(1, std::memory_order_relaxed);
          obs::add(failed_ctr, 1);
          return;
        }
        retries.fetch_add(1, std::memory_order_relaxed);
        obs::add(retries_ctr, 1);
        if (!interruptible_sleep_ms(retry_backoff_ms(options.retry, i, attempt), token)) return;
        continue;
      }
      if (!ts.empty()) outcome.timeseries = std::move(ts);
      if (!flight.empty()) outcome.flight = std::move(flight);
      run.outcomes[i] = outcome;
      run.completed[i] = 1;
      if (!options.checkpoint_path.empty() || options.after_checkpoint || sink.enabled()) {
        // Serialize appends so records never interleave; checkpoint I/O
        // failures propagate (a dead journal is a run-level error, not a
        // point retry) while sink failures only mute the progress stream.
        const std::lock_guard<std::mutex> lock(journal_mu);
        if (!options.checkpoint_path.empty()) {
          util::append_line_durable(options.checkpoint_path,
                                    encode_checkpoint_line(keys[i], outcome));
        }
        ++journal_appends;
        if (sink.enabled()) {
          json::Value rec = json::Value::object();
          rec.set("v", json::Value::number(u64{1}));
          rec.set("type", json::Value::string("point"));
          rec.set("index", json::Value::number(static_cast<u64>(i)));
          rec.set("completed", json::Value::number(run.num_replayed +
                                                   static_cast<u64>(journal_appends)));
          rec.set("total", json::Value::number(static_cast<u64>(points.size())));
          rec.set("n", json::Value::number(p.n));
          rec.set("offered_load", json::Value::number(p.offered_load));
          rec.set("faulty", json::Value::boolean(sweep_point_is_faulty(p)));
          rec.set("throughput", json::Value::number(outcome.point.throughput));
          rec.set("avg_latency", json::Value::number(outcome.point.avg_latency));
          sink.emit(std::move(rec));
          // Sample flush: the point's telemetry, downsampled for sparklines.
          const obs::TimeSeries& series = run.outcomes[i].timeseries;
          if (!series.empty()) {
            json::Value flush = json::Value::object();
            flush.set("v", json::Value::number(u64{1}));
            flush.set("type", json::Value::string("samples"));
            flush.set("index", json::Value::number(static_cast<u64>(i)));
            flush.set("stride", json::Value::number(series.stride()));
            flush.set("num_samples", json::Value::number(
                                         static_cast<u64>(series.num_samples())));
            flush.set("in_flight", spark_values(series, obs::kChannelInFlight));
            json::Value stages = json::Value::array();
            const std::size_t last = series.num_samples() - 1;
            for (std::size_t c = 0; c < series.num_channels(); ++c) {
              if (series.channels()[c].rfind("stage", 0) != 0) continue;
              stages.push_back(json::Value::number(series.value(last, c)));
            }
            flush.set("stage_occ", std::move(stages));
            sink.emit(std::move(flush));
          }
        }
        if (options.after_checkpoint) options.after_checkpoint(journal_appends);
      }
      return;
    }
  };

  if (!pending.empty()) {
    std::size_t threads = options.threads != 0 ? options.threads : default_thread_count();
    threads = std::min(threads, pending.size());
    parallel_for_chunked(
        0, pending.size(), threads,
        [&](std::size_t lo, std::size_t hi, std::size_t /*tid*/) {
          for (std::size_t j = lo; j < hi; ++j) {
            if (token->cancelled()) return;
            run_point(pending[j]);
          }
        },
        token);
  }

  run.num_retries = retries.load(std::memory_order_relaxed);
  run.num_failed = failed.load(std::memory_order_relaxed);
  for (const std::uint8_t c : run.completed) run.num_completed += c;

  const u64 total = static_cast<u64>(points.size());
  if (run.num_completed == total) {
    run.status = SweepStatus::kComplete;
  } else if (token->cancelled()) {
    run.status = SweepStatus::kCancelled;
    // Per-reason accounting over the points the stop abandoned: a tripped
    // deadline counts as expired, an explicit request as cancelled.
    const u64 abandoned = total - run.num_completed;
    obs::add(token->expired() ? expired_ctr : cancelled_ctr, abandoned);
  } else {
    run.status = SweepStatus::kPartial;
  }

  // Leave the registry exactly as a serial run over the completed points
  // would: last-write-wins gauges re-set in request order, plus the run-level
  // progress gauges the report's "status" line summarizes.
  reset_sweep_gauges(points, run.outcomes, &run.completed);
  obs::set(obs::get_gauge("exec.points_completed"), static_cast<double>(run.num_completed));
  obs::set(obs::get_gauge("exec.points_total"), static_cast<double>(total));

  if (sink.enabled()) {
    json::Value done = json::Value::object();
    done.set("v", json::Value::number(u64{1}));
    done.set("type", json::Value::string("done"));
    done.set("status", json::Value::string(to_string(run.status)));
    done.set("completed", json::Value::number(run.num_completed));
    done.set("total", json::Value::number(total));
    done.set("replayed", json::Value::number(run.num_replayed));
    done.set("failed", json::Value::number(run.num_failed));
    sink.emit(std::move(done));
  }
  return run;
}

}  // namespace bfly::exec
