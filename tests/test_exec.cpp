// bfly::exec: the resilient sweep driver.
//
// The load-bearing contract is *bit-identity under interruption*: for every
// prefix k, killing a checkpointed run after its k-th completed point and
// resuming yields the same outcome vector, status, counts, and
// outcome-derived gauges as one uninterrupted run — for any pool size.  The
// checkpoint is a content-keyed JSONL journal whose torn tail (the worst a
// crash can leave, given append_line_durable's single-write discipline) must
// degrade to re-running a point, never to corrupt results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/exec.hpp"
#include "fault/fault_set.hpp"
#include "obs/metrics.hpp"
#include "routing/routing.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"
#include "util/fileio.hpp"

namespace bfly {
namespace {

// Exact (bitwise) equality throughout: EXPECT_EQ on doubles, not
// EXPECT_DOUBLE_EQ — the resume guarantee is bit-identity, not closeness.
void expect_outcome_eq(const SweepOutcome& a, const SweepOutcome& b) {
  EXPECT_EQ(a.point.offered_load, b.point.offered_load);
  EXPECT_EQ(a.point.throughput, b.point.throughput);
  EXPECT_EQ(a.point.avg_latency, b.point.avg_latency);
  EXPECT_EQ(a.point.per_node_injection, b.point.per_node_injection);
  EXPECT_EQ(a.point.delivered, b.point.delivered);
  EXPECT_EQ(a.point.max_queue, b.point.max_queue);
  EXPECT_EQ(a.point.dropped_queue_full, b.point.dropped_queue_full);
  EXPECT_EQ(a.tally.delivered, b.tally.delivered);
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    EXPECT_EQ(a.tally.dropped[r], b.tally.dropped[r]) << "drop reason " << r;
  }
  EXPECT_EQ(a.tally.misroutes, b.tally.misroutes);
  EXPECT_EQ(a.tally.wraps, b.tally.wraps);
  // operator== is the bit-pattern comparison (channels, cycles, stride, and
  // every sample double compared by bits) — telemetry replays exactly too.
  EXPECT_TRUE(a.timeseries == b.timeseries);
  // Same for flight traces: packet ids, hop sequences, and terminals are all
  // integers, and the replay contract is bit-identity.
  EXPECT_TRUE(a.flight == b.flight);
}

void expect_outcomes_eq(const std::vector<SweepOutcome>& a, const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_outcome_eq(a[i], b[i]);
  }
}

double gauge_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "no gauge named " << name;
  return -1.0;
}

u64 counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "no counter named " << name;
  return ~u64{0};
}

/// A small mixed grid: pristine points (one with a bounded queue) plus faulty
/// points against two fault sets — the same shape the bench sweeps have.
struct TestGrid {
  FaultSet light = FaultSet::random_links(4, 0.03, 77);
  FaultSet heavy = FaultSet::random_links(4, 0.10, 78);
  std::vector<SweepPoint> points;

  TestGrid() {
    for (const double load : {0.3, 0.7, 1.0}) {
      SweepPoint p;
      p.n = 4;
      p.offered_load = load;
      p.cycles = 300;
      p.seed = 9;
      p.warmup_cycles = 50;
      points.push_back(p);
    }
    points[1].queue_capacity = 3;
    // Cycle-resolved telemetry on a pristine point: its samples are part of
    // the journaled outcome, so the kill/resume loops below also prove the
    // timeseries replays bit-for-bit.  Flight traces ride the same journal
    // (checkpoint v3), so give the point a flight budget too.
    points[2].telemetry_budget = 32;
    points[2].flight_budget = 16;
    for (const FaultSet* fs : {&light, &heavy}) {
      SweepPoint p;
      p.n = 4;
      p.offered_load = 0.6;
      p.cycles = 300;
      p.seed = 11;
      p.warmup_cycles = 50;
      p.faults = fs;
      points.push_back(p);
    }
    // ...and on a faulty point, covering the other engine's probe wiring.
    points.back().telemetry_budget = 32;
    points.back().flight_budget = 16;
  }
};

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "bfly_" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines,
                 const std::string& torn_tail = "") {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << "\n";
  out << torn_tail;  // no newline: a torn final line, as a crash would leave
}

TEST(Checkpoint, SweepPointKeyIsAContentHash) {
  const TestGrid grid;
  // Equal content -> equal key; every parameter (including the fault map)
  // participates.
  SweepPoint p = grid.points[0];
  EXPECT_EQ(exec::sweep_point_key(p), exec::sweep_point_key(grid.points[0]));
  SweepPoint q = p;
  q.seed ^= 1;
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  q = p;
  q.offered_load += 1e-16;
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  q = p;
  q.queue_capacity = 7;
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  q = p;
  q.telemetry_budget = 64;  // changes what the outcome carries -> new identity
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  q = p;
  q.flight_budget = 64;  // likewise: a journaled outcome gains a flight block
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  q = p;
  q.faults = &grid.light;
  EXPECT_NE(exec::sweep_point_key(q), exec::sweep_point_key(p));
  SweepPoint r = q;
  r.faults = &grid.heavy;
  EXPECT_NE(exec::sweep_point_key(r), exec::sweep_point_key(q));
  EXPECT_EQ(exec::sweep_point_key(p).size(), 16u);
}

TEST(Checkpoint, RoundTripIsBitwise) {
  const TestGrid grid;
  const std::vector<SweepOutcome> outcomes = saturation_sweep(grid.points, 1);
  const std::string path = temp_path("ckpt_roundtrip.ckpt");
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    util::append_line_durable(
        path, exec::encode_checkpoint_line(exec::sweep_point_key(grid.points[i]), outcomes[i]));
  }
  const exec::CheckpointLoad load = exec::load_checkpoint(path);
  EXPECT_EQ(load.lines_read, grid.points.size());
  EXPECT_EQ(load.lines_skipped, 0u);
  ASSERT_EQ(load.outcomes.size(), grid.points.size());
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    SCOPED_TRACE(i);
    const auto it = load.outcomes.find(exec::sweep_point_key(grid.points[i]));
    ASSERT_NE(it, load.outcomes.end());
    expect_outcome_eq(it->second, outcomes[i]);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsAFreshCheckpoint) {
  const exec::CheckpointLoad load = exec::load_checkpoint(temp_path("ckpt_missing.ckpt"));
  EXPECT_TRUE(load.outcomes.empty());
  EXPECT_EQ(load.lines_read, 0u);
}

TEST(Checkpoint, TornAndCorruptLinesAreSkipped) {
  const TestGrid grid;
  const std::vector<SweepOutcome> outcomes = saturation_sweep(grid.points, 1);
  const std::string path = temp_path("ckpt_torn.ckpt");
  const std::string line0 =
      exec::encode_checkpoint_line(exec::sweep_point_key(grid.points[0]), outcomes[0]);
  const std::string line1 =
      exec::encode_checkpoint_line(exec::sweep_point_key(grid.points[1]), outcomes[1]);
  write_lines(path, {line0, "not json at all", line1, R"({"v": 99, "key": "00", "outcome": 0})"},
              line1.substr(0, line1.size() / 2));
  const exec::CheckpointLoad load = exec::load_checkpoint(path);
  EXPECT_EQ(load.lines_skipped, 3u);  // garbage + future version + torn tail
  ASSERT_EQ(load.outcomes.size(), 2u);
  expect_outcome_eq(load.outcomes.at(exec::sweep_point_key(grid.points[0])), outcomes[0]);
  expect_outcome_eq(load.outcomes.at(exec::sweep_point_key(grid.points[1])), outcomes[1]);
  std::remove(path.c_str());
}

TEST(Checkpoint, V5RecordIsSkippedAndItsPointReruns) {
  // A v5 record holds an outcome of the engines before the counter-based
  // injection draws.  Even under the point's current key, it must not
  // replay: the loader skips it and the sweep computes the point afresh.
  const TestGrid grid;
  const SweepPoint& p = grid.points[0];
  const std::vector<SweepOutcome> fresh = saturation_sweep(std::vector<SweepPoint>{p}, 1);
  SweepOutcome stale = fresh[0];
  stale.point.delivered += 1;
  std::string line = exec::encode_checkpoint_line(exec::sweep_point_key(p), stale);
  const std::string v6 = "\"v\":6";
  const std::size_t at = line.find(v6);
  ASSERT_NE(at, std::string::npos) << line;
  line.replace(at, v6.size(), "\"v\":5");
  const std::string path = temp_path("ckpt_v5.ckpt");
  write_lines(path, {line});

  const exec::CheckpointLoad load = exec::load_checkpoint(path);
  EXPECT_EQ(load.lines_read, 1u);
  EXPECT_EQ(load.lines_skipped, 1u);
  EXPECT_TRUE(load.outcomes.empty());

  exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.checkpoint_path = path;
  const exec::SweepRun run = exec::run_sweep_resumable(std::vector<SweepPoint>{p}, opt);
  EXPECT_TRUE(run.complete());
  EXPECT_EQ(run.num_replayed, 0u);
  ASSERT_EQ(run.outcomes.size(), 1u);
  expect_outcome_eq(run.outcomes[0], fresh[0]);
  std::remove(path.c_str());
}

TEST(Exec, CleanRunMatchesPlainSweepForAnyPoolSize) {
  const TestGrid grid;
  const std::vector<SweepOutcome> plain = saturation_sweep(grid.points, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    obs::Registry reg;
    const obs::ScopedRegistry scoped(&reg);
    exec::SweepRunOptions opt;
    opt.threads = threads;
    const exec::SweepRun run = exec::run_sweep_resumable(grid.points, opt);
    EXPECT_EQ(run.status, exec::SweepStatus::kComplete);
    EXPECT_TRUE(run.complete());
    EXPECT_EQ(run.num_completed, grid.points.size());
    EXPECT_EQ(run.num_replayed, 0u);
    EXPECT_EQ(run.num_retries, 0u);
    EXPECT_EQ(run.num_failed, 0u);
    expect_outcomes_eq(run.outcomes, plain);
    // The exec metric family exists (at zero) even on a clean run, so every
    // run report carries it.
    const obs::MetricsSnapshot snap = reg.metrics_snapshot();
    EXPECT_EQ(counter_value(snap, "exec.retries"), 0u);
    EXPECT_EQ(counter_value(snap, "exec.cancelled"), 0u);
    EXPECT_EQ(counter_value(snap, "exec.expired"), 0u);
    EXPECT_EQ(counter_value(snap, "exec.replayed"), 0u);
    EXPECT_EQ(counter_value(snap, "exec.failed"), 0u);
    EXPECT_EQ(gauge_value(snap, "exec.points_completed"),
              static_cast<double>(grid.points.size()));
    EXPECT_EQ(gauge_value(snap, "exec.points_total"), static_cast<double>(grid.points.size()));
  }
}

/// The headline guarantee, end to end: cancel a checkpointed run right after
/// its k-th point is journaled, then resume — for every k, and with a
/// different pool size on resume.  Outcomes, status, counts, and the
/// outcome-derived gauges must all match one uninterrupted run, bit for bit.
TEST(Exec, KillAfterEveryPrefixThenResumeIsBitIdentical) {
  const TestGrid grid;
  const std::size_t total = grid.points.size();

  obs::Registry baseline_reg;
  std::vector<SweepOutcome> baseline;
  {
    const obs::ScopedRegistry scoped(&baseline_reg);
    exec::SweepRunOptions opt;
    opt.threads = 1;
    baseline = exec::run_sweep_resumable(grid.points, opt).outcomes;
  }
  const obs::MetricsSnapshot base_snap = baseline_reg.metrics_snapshot();

  const std::string path = temp_path("ckpt_kill_resume.ckpt");
  for (std::size_t k = 1; k < total; ++k) {
    SCOPED_TRACE(::testing::Message() << "kill after " << k << " points");
    std::remove(path.c_str());

    // Phase 1: run serially, cancel the moment the k-th record is durable.
    CancelToken token;
    exec::SweepRunOptions kill;
    kill.threads = 1;
    kill.checkpoint_path = path;
    kill.cancel = &token;
    kill.after_checkpoint = [&](std::size_t appended) {
      if (appended == k) token.request_cancel();
    };
    const exec::SweepRun killed = exec::run_sweep_resumable(grid.points, kill);
    EXPECT_EQ(killed.status, exec::SweepStatus::kCancelled);
    EXPECT_EQ(killed.num_completed, k);
    EXPECT_EQ(read_lines(path).size(), k);

    // Phase 2: resume from the journal with a different pool size.
    obs::Registry reg;
    const obs::ScopedRegistry scoped(&reg);
    exec::SweepRunOptions resume;
    resume.threads = 3;
    resume.checkpoint_path = path;
    const exec::SweepRun resumed = exec::run_sweep_resumable(grid.points, resume);
    EXPECT_EQ(resumed.status, exec::SweepStatus::kComplete);
    EXPECT_EQ(resumed.num_completed, total);
    EXPECT_EQ(resumed.num_replayed, k);
    expect_outcomes_eq(resumed.outcomes, baseline);

    // Outcome-derived registry state matches the uninterrupted run too.
    const obs::MetricsSnapshot snap = reg.metrics_snapshot();
    for (const char* g : {"routing.max_queue", "routing.throughput", "fault.max_queue",
                          "fault.throughput", "exec.points_completed", "exec.points_total"}) {
      EXPECT_EQ(gauge_value(snap, g), gauge_value(base_snap, g)) << g;
    }
    EXPECT_EQ(counter_value(snap, "exec.replayed"), k);
  }
  std::remove(path.c_str());
}

TEST(Exec, ResumesPastATornJournalTail) {
  // A crash mid-append leaves a torn final line; the resume must replay the
  // intact prefix and re-run the rest, landing on the same results.
  const TestGrid grid;
  const std::string path = temp_path("ckpt_torn_resume.ckpt");
  exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.checkpoint_path = path;
  const exec::SweepRun full = exec::run_sweep_resumable(grid.points, opt);
  ASSERT_EQ(full.status, exec::SweepStatus::kComplete);
  const std::vector<std::string> journal = read_lines(path);
  ASSERT_EQ(journal.size(), grid.points.size());

  for (std::size_t k = 0; k < journal.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "intact prefix " << k);
    const std::vector<std::string> prefix(journal.begin(),
                                          journal.begin() + static_cast<std::ptrdiff_t>(k));
    write_lines(path, prefix, journal[k].substr(0, journal[k].size() / 2));
    exec::SweepRunOptions resume;
    resume.threads = 1;
    resume.checkpoint_path = path;
    const exec::SweepRun resumed = exec::run_sweep_resumable(grid.points, resume);
    EXPECT_EQ(resumed.status, exec::SweepStatus::kComplete);
    EXPECT_EQ(resumed.num_replayed, k);
    expect_outcomes_eq(resumed.outcomes, full.outcomes);
  }
  std::remove(path.c_str());
}

TEST(Exec, CancellationDiscardsPartialFlightTracesAndResumesBitIdentical) {
  // The probe x cancellation interaction: with flight-budget points in the
  // grid, trip the token while workers are mid-sweep (after_checkpoint fires
  // on the first durable append while the other two workers are still inside
  // their engines).  The contract under test:
  //   1. A cancelled point's outcome slot is fully discarded — no partial
  //      flight traces (or telemetry) survive in the returned vector.
  //   2. The journal holds only whole, parseable records — never a torn
  //      trace — so the checkpoint loader skips nothing.
  //   3. Resuming completes the grid bit-identically (flight included).
  const TestGrid grid;
  exec::SweepRunOptions base;
  base.threads = 1;
  const std::vector<SweepOutcome> baseline = exec::run_sweep_resumable(grid.points, base).outcomes;

  const std::string path = temp_path("ckpt_flight_cancel.ckpt");
  CancelToken token;
  exec::SweepRunOptions kill;
  kill.threads = 3;
  kill.checkpoint_path = path;
  kill.cancel = &token;
  kill.after_checkpoint = [&](std::size_t appended) {
    if (appended == 1) token.request_cancel();
  };
  const exec::SweepRun killed = exec::run_sweep_resumable(grid.points, kill);
  EXPECT_EQ(killed.status, exec::SweepStatus::kCancelled);
  EXPECT_LT(killed.num_completed, grid.points.size());
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    if (killed.completed[i]) continue;
    // Discarded, not truncated: the slot carries no recorded state at all.
    EXPECT_TRUE(killed.outcomes[i].flight.empty()) << "point " << i;
    EXPECT_TRUE(killed.outcomes[i].timeseries.empty()) << "point " << i;
    EXPECT_EQ(killed.outcomes[i].point.delivered, 0u) << "point " << i;
  }
  // Every journal line is a whole record (append_line_durable's single-write
  // discipline + the post-engine cancel check): the loader skips nothing and
  // recovers exactly the completed points.
  EXPECT_EQ(read_lines(path).size(), killed.num_completed);
  const exec::CheckpointLoad load = exec::load_checkpoint(path);
  EXPECT_EQ(load.lines_skipped, 0u);
  EXPECT_EQ(load.outcomes.size(), killed.num_completed);

  exec::SweepRunOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = path;
  const exec::SweepRun resumed = exec::run_sweep_resumable(grid.points, resume);
  EXPECT_EQ(resumed.status, exec::SweepStatus::kComplete);
  EXPECT_EQ(resumed.num_replayed, killed.num_completed);
  expect_outcomes_eq(resumed.outcomes, baseline);
  // The flight-budget points really carried traces through the journal.
  EXPECT_FALSE(resumed.outcomes[2].flight.empty());
  EXPECT_FALSE(resumed.outcomes.back().flight.empty());
  std::remove(path.c_str());
}

TEST(Exec, RetryBackoffStaysWithinBaseAndCapAndIsDeterministic) {
  exec::RetryPolicy policy;
  policy.backoff_base_ms = 5.0;
  policy.backoff_factor = 2.0;
  policy.backoff_cap_ms = 80.0;
  // Every (seed, index, attempt) cell: the jittered delay never leaves
  // [base, cap], however deep the exponential schedule runs.
  for (const u64 seed : {u64{0}, u64{1}, u64{42}, u64{0xdeadbeef}}) {
    policy.jitter_seed = seed;
    for (std::size_t index = 0; index < 16; ++index) {
      for (int attempt = 1; attempt <= 12; ++attempt) {
        const double ms = exec::retry_backoff_ms(policy, index, attempt);
        EXPECT_GE(ms, policy.backoff_base_ms) << seed << "/" << index << "/" << attempt;
        EXPECT_LE(ms, policy.backoff_cap_ms) << seed << "/" << index << "/" << attempt;
      }
    }
  }
  // Deterministic per seed: replaying the same policy yields bit-identical
  // delays, and the jitter actually depends on the seed (two seeds must
  // disagree somewhere in the grid).
  policy.jitter_seed = 7;
  bool seeds_differ = false;
  for (std::size_t index = 0; index < 8; ++index) {
    for (int attempt = 1; attempt <= 6; ++attempt) {
      const double a = exec::retry_backoff_ms(policy, index, attempt);
      const double b = exec::retry_backoff_ms(policy, index, attempt);
      EXPECT_EQ(a, b);
      exec::RetryPolicy other = policy;
      other.jitter_seed = 8;
      if (exec::retry_backoff_ms(other, index, attempt) != a) seeds_differ = true;
    }
  }
  EXPECT_TRUE(seeds_differ);
  // The jitter does spread: attempts of *different* points differ (the whole
  // reason per-index jitter exists — concurrent retries must not stampede).
  EXPECT_NE(exec::retry_backoff_ms(policy, 0, 1), exec::retry_backoff_ms(policy, 1, 1));
  // A malformed policy (base above cap) is rejected loudly.
  exec::RetryPolicy bad;
  bad.backoff_base_ms = 10.0;
  bad.backoff_cap_ms = 1.0;
  EXPECT_THROW(exec::retry_backoff_ms(bad, 0, 1), InvalidArgument);
}

TEST(Exec, RetriesFlakyPointWithBackoffThenSucceeds) {
  const TestGrid grid;
  const std::vector<SweepOutcome> plain = saturation_sweep(grid.points, 1);
  obs::Registry reg;
  const obs::ScopedRegistry scoped(&reg);
  int failures_left = 2;
  exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.retry.max_attempts = 3;
  opt.retry.backoff_base_ms = 0.01;  // keep the test fast; jitter still applies
  opt.before_point = [&](std::size_t index, int /*attempt*/) {
    if (index == 1 && failures_left > 0) {
      --failures_left;
      throw std::runtime_error("injected flake");
    }
  };
  const exec::SweepRun run = exec::run_sweep_resumable(grid.points, opt);
  EXPECT_EQ(run.status, exec::SweepStatus::kComplete);
  EXPECT_EQ(run.num_retries, 2u);
  EXPECT_EQ(run.num_failed, 0u);
  EXPECT_EQ(run.first_error, "injected flake");
  expect_outcomes_eq(run.outcomes, plain);
  EXPECT_EQ(counter_value(reg.metrics_snapshot(), "exec.retries"), 2u);
}

TEST(Exec, ExhaustedRetriesDegradeTheRunToPartial) {
  const TestGrid grid;
  const std::vector<SweepOutcome> plain = saturation_sweep(grid.points, 1);
  obs::Registry reg;
  const obs::ScopedRegistry scoped(&reg);
  exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.retry.max_attempts = 2;
  opt.retry.backoff_base_ms = 0.01;
  opt.before_point = [](std::size_t index, int /*attempt*/) {
    if (index == 0) throw std::runtime_error("permanently broken");
  };
  const exec::SweepRun run = exec::run_sweep_resumable(grid.points, opt);
  EXPECT_EQ(run.status, exec::SweepStatus::kPartial);
  EXPECT_FALSE(run.complete());
  EXPECT_EQ(run.num_failed, 1u);
  EXPECT_EQ(run.num_retries, 1u);
  EXPECT_EQ(run.num_completed, grid.points.size() - 1);
  EXPECT_EQ(run.completed[0], 0);
  EXPECT_EQ(run.first_error, "permanently broken");
  // Every other point still finished, with the usual bit-exact results.
  for (std::size_t i = 1; i < grid.points.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(run.completed[i], 1);
    expect_outcome_eq(run.outcomes[i], plain[i]);
  }
  const obs::MetricsSnapshot snap = reg.metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "exec.failed"), 1u);
  EXPECT_EQ(gauge_value(snap, "exec.points_completed"),
            static_cast<double>(grid.points.size() - 1));
}

TEST(Exec, CancellationStopsALongSweepWithinTheBound) {
  // Four points that would each take minutes uncancelled.  Cancel ~50 ms in;
  // the engines poll every kCancelPollCycles cycles, so the run must return
  // within one poll batch per worker — asserted with a very generous ceiling
  // so TSan/ASan builds on a loaded single-core machine still pass.
  std::vector<SweepPoint> pts;
  for (const double load : {0.4, 0.6, 0.8, 1.0}) {
    SweepPoint p;
    p.n = 8;
    p.offered_load = load;
    p.cycles = 50'000'000;
    p.seed = 5;
    pts.push_back(p);
  }
  obs::Registry reg;
  const obs::ScopedRegistry scoped(&reg);
  CancelToken token;
  exec::SweepRunOptions opt;
  opt.threads = 2;
  opt.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.request_cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const exec::SweepRun run = exec::run_sweep_resumable(pts, opt);
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  canceller.join();
  EXPECT_EQ(run.status, exec::SweepStatus::kCancelled);
  EXPECT_LT(run.num_completed, pts.size());
  EXPECT_LT(elapsed, 60.0);  // generous: an uncancelled run would take far longer
  const obs::MetricsSnapshot snap = reg.metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "exec.cancelled"),
            static_cast<u64>(pts.size()) - run.num_completed);
  EXPECT_EQ(counter_value(snap, "exec.expired"), 0u);
}

TEST(Exec, DeadlineExpiryIsAccountedAsExpired) {
  std::vector<SweepPoint> pts;
  for (const double load : {0.5, 0.9}) {
    SweepPoint p;
    p.n = 8;
    p.offered_load = load;
    p.cycles = 50'000'000;
    p.seed = 6;
    pts.push_back(p);
  }
  obs::Registry reg;
  const obs::ScopedRegistry scoped(&reg);
  exec::SweepRunOptions opt;
  opt.threads = 1;
  opt.deadline_seconds = 0.05;
  const auto t0 = std::chrono::steady_clock::now();
  const exec::SweepRun run = exec::run_sweep_resumable(pts, opt);
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(run.status, exec::SweepStatus::kCancelled);
  EXPECT_LT(elapsed, 60.0);
  const obs::MetricsSnapshot snap = reg.metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "exec.expired"),
            static_cast<u64>(pts.size()) - run.num_completed);
  EXPECT_EQ(counter_value(snap, "exec.cancelled"), 0u);
}

TEST(Exec, RejectsMalformedGridsAndOptions) {
  TestGrid grid;
  exec::SweepRunOptions opt;
  opt.retry.max_attempts = 0;
  EXPECT_THROW(exec::run_sweep_resumable(grid.points, opt), InvalidArgument);
  opt = {};
  opt.deadline_seconds = -1.0;
  EXPECT_THROW(exec::run_sweep_resumable(grid.points, opt), InvalidArgument);
  opt = {};
  grid.points[2].cycles = 0;
  EXPECT_THROW(exec::run_sweep_resumable(grid.points, opt), InvalidArgument);
}

TEST(Routing, UncancelledTokenDoesNotPerturbTheEngines) {
  // Threading a live-but-never-tripped token through the engines must not
  // change a single bit of the result.
  CancelToken token;
  const SaturationPoint with_token = simulate_saturation(5, 0.7, 400, 3, 50, 0, &token);
  const SaturationPoint without = simulate_saturation(5, 0.7, 400, 3, 50, 0, nullptr);
  EXPECT_EQ(with_token.throughput, without.throughput);
  EXPECT_EQ(with_token.avg_latency, without.avg_latency);
  EXPECT_EQ(with_token.delivered, without.delivered);
  EXPECT_EQ(with_token.max_queue, without.max_queue);
}

TEST(Routing, CancelledEngineReturnsAPartialMeasurement) {
  // A pre-cancelled token stops the engine at its first poll (cycle 0): no
  // cycles simulated, zero throughput, and no crash or division by zero.
  CancelToken token;
  token.request_cancel();
  const SaturationPoint p = simulate_saturation(5, 0.7, 400, 3, 50, 0, &token);
  EXPECT_EQ(p.delivered, 0u);
  EXPECT_EQ(p.throughput, 0.0);
}

}  // namespace
}  // namespace bfly
