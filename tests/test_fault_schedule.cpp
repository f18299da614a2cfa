// bfly::fault live schedules: the deterministic mid-run fault/repair
// timeline, the counting liveness overlay, spare-chip failover, and the
// recovery analytics built on top.
//
// The load-bearing contracts:
//   * Determinism — an empty schedule is bitwise identical to the static
//     path, a schedule whose events all sit at cycle 0 is bitwise identical
//     to the equivalent static FaultSet, and scheduled sweep points
//     kill/resume bit-identically at every prefix across thread counts.
//   * Soundness — liveness is cause-counted, so overlapping faults repair in
//     any order without resurrecting a link another cause still holds dead.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/exec.hpp"
#include "fault/fault_routing.hpp"
#include "fault/fault_schedule.hpp"
#include "packaging/hierarchical.hpp"
#include "sim/recovery.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"

namespace bfly {
namespace {

// Bitwise equality on every engine output — the determinism contract is
// bit-identity, so EXPECT_EQ on doubles, not EXPECT_DOUBLE_EQ.
void expect_fsp_eq(const FaultSaturationPoint& a, const FaultSaturationPoint& b) {
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
}

// --- schedule surgery --------------------------------------------------------

TEST(FaultSchedule, EventsStaySortedAndStable) {
  FaultSchedule s(4);
  s.fail_link_at(300, 1, 0, false);
  s.fail_link_at(100, 2, 1, true);
  s.repair_link_at(300, 1, 0, false);  // same cycle: applies after the fail
  s.fail_node_at(200, 7, 2);
  ASSERT_EQ(s.events().size(), 4u);
  EXPECT_EQ(s.events()[0].cycle, 100u);
  EXPECT_EQ(s.events()[1].cycle, 200u);
  EXPECT_EQ(s.events()[2].cycle, 300u);
  EXPECT_EQ(s.events()[2].action, FaultAction::kFail);
  EXPECT_EQ(s.events()[3].cycle, 300u);
  EXPECT_EQ(s.events()[3].action, FaultAction::kRepair);
  EXPECT_EQ(s.last_event_cycle(), 300u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(FaultSchedule(4).empty());
}

TEST(FaultSchedule, RejectsOutOfRangeTargets) {
  EXPECT_THROW(FaultSchedule(0), InvalidArgument);
  EXPECT_THROW(FaultSchedule(31), InvalidArgument);
  FaultSchedule s(3);
  EXPECT_THROW(s.fail_link_at(0, 8, 0, false), InvalidArgument);
  EXPECT_THROW(s.fail_link_at(0, 0, 3, false), InvalidArgument);
  EXPECT_THROW(s.repair_node_at(0, 0, 4), InvalidArgument);
  // Chip events need a plan; the plan must match the dimension.
  EXPECT_THROW(s.fail_chip_at(0, 0), InvalidArgument);
  EXPECT_THROW(s.attach_plan({2, 2}, 1), InvalidArgument);  // dimension 4 != 3
  s.attach_plan({2, 1}, 1);
  EXPECT_EQ(s.num_chips(), 4u);
  EXPECT_THROW(s.fail_chip_at(0, 4), InvalidArgument);
  EXPECT_THROW(s.attach_plan({2, 1}, 1), InvalidArgument);  // already attached
  s.fail_chip_at(10, 3);
  EXPECT_EQ(s.events().size(), 1u);
}

TEST(FaultSchedule, RandomLinksIsDeterministicPerTuple) {
  const FaultSchedule a = FaultSchedule::random_links(4, 500, 50, 2000, 7);
  const FaultSchedule b = FaultSchedule::random_links(4, 500, 50, 2000, 7);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_GT(a.events().size(), 0u);
  const FaultSchedule c = FaultSchedule::random_links(4, 500, 50, 2000, 8);
  EXPECT_FALSE(a == c);
  // Per link the timeline alternates fail, repair, fail, ... starting alive.
  const FaultSchedule dense = FaultSchedule::random_links(3, 100, 10, 500, 1);
  std::map<u64, bool> expect_fail;
  u64 previous_cycle = 0;
  for (const FaultEvent& e : dense.events()) {
    EXPECT_GE(e.cycle, previous_cycle);  // sorted timeline
    previous_cycle = e.cycle;
    EXPECT_EQ(e.target, FaultTarget::kLink);
    const u64 id = (static_cast<u64>(e.stage) * 8 + e.row) * 2 + (e.cross ? 1 : 0);
    const auto [it, fresh] = expect_fail.emplace(id, true);
    EXPECT_EQ(e.action, it->second ? FaultAction::kFail : FaultAction::kRepair) << id;
    it->second = !it->second;
  }
  EXPECT_THROW(FaultSchedule::random_links(4, 1, 10, 100, 1), InvalidArgument);
  EXPECT_THROW(FaultSchedule::random_links(4, 10, 0, 100, 1), InvalidArgument);
  EXPECT_THROW(FaultSchedule::random_links(4, 10, 10, 0, 1), InvalidArgument);
}

// --- JSON --------------------------------------------------------------------

FaultSchedule populated_schedule() {
  FaultSchedule s(4);
  s.attach_plan({2, 2}, 2);
  s.set_failover({/*spare_chips=*/2, /*detection_latency=*/64});
  s.set_link_death_policy(LinkDeathPolicy::kDeflect);
  s.fail_link_at(10, 3, 1, true);
  s.fail_node_at(20, 5, 2);
  s.fail_chip_at(30, 1);
  s.repair_node_at(40, 5, 2);
  s.repair_chip_at(50, 1);
  return s;
}

TEST(FaultScheduleJson, RoundTripIsBitwiseExact) {
  const FaultSchedule s = populated_schedule();
  const FaultSchedule back = FaultSchedule::from_json(s.to_json());
  EXPECT_TRUE(s == back);
  EXPECT_EQ(s.to_json().dump(), back.to_json().dump());
  EXPECT_EQ(s.content_hash(), back.content_hash());
  EXPECT_EQ(back.failover().spare_chips, 2u);
  EXPECT_EQ(back.failover().detection_latency, 64u);
  EXPECT_EQ(back.link_death_policy(), LinkDeathPolicy::kDeflect);
  ASSERT_TRUE(back.has_plan());
  EXPECT_EQ(back.plan_rows_log2(), 2);
  // The random generator's output round-trips too.
  const FaultSchedule r = FaultSchedule::random_links(5, 300, 40, 1500, 3);
  EXPECT_TRUE(FaultSchedule::from_json(r.to_json()) == r);
}

/// `good` with its events array replaced by one event parsed from `event`.
json::Value with_event(const json::Value& good, const char* event) {
  json::Value bad = good;
  json::Value events = json::Value::array();
  events.push_back(json::Value::parse(event));
  bad.set("events", std::move(events));
  return bad;
}

TEST(FaultScheduleJson, RejectsMalformedDocuments) {
  const json::Value good = populated_schedule().to_json();
  EXPECT_NO_THROW(FaultSchedule::from_json(good));

  json::Value bad = good;
  bad.set("v", json::Value::number(2));
  EXPECT_THROW(FaultSchedule::from_json(bad), InvalidArgument);

  bad = good;
  bad.set("n", json::Value::number(31));
  EXPECT_THROW(FaultSchedule::from_json(bad), InvalidArgument);

  bad = good;
  bad.set("link_death_policy", json::Value::number(2));
  EXPECT_THROW(FaultSchedule::from_json(bad), InvalidArgument);

  bad = good;
  json::Value plan = json::Value::object();
  plan.set("k", json::Value::parse("[2, 3]"));  // dimension 5 != 4
  plan.set("rows_log2", json::Value::number(1));
  bad.set("plan", std::move(plan));
  EXPECT_THROW(FaultSchedule::from_json(bad), InvalidArgument);

  // Event shape and code violations.
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 0, 0, 0, 0]")),
               InvalidArgument);  // arity 6
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 2, 0, 0, 0, 0, 0]")),
               InvalidArgument);  // bad action
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 3, 0, 0, 0, 0]")),
               InvalidArgument);  // bad target
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 0, 16, 0, 0, 0]")),
               InvalidArgument);  // row out of range
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 0, 0, 4, 0, 0]")),
               InvalidArgument);  // link stage out of range
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 0, 0, 0, 2, 0]")),
               InvalidArgument);  // cross flag must be 0/1
  EXPECT_THROW(FaultSchedule::from_json(with_event(good, "[1, 0, 2, 0, 0, 0, 4]")),
               InvalidArgument);  // chip out of range for the plan

  EXPECT_THROW(FaultSchedule::from_json(json::Value::parse("[]")), InvalidArgument);
}

// --- LiveFaultState ----------------------------------------------------------

TEST(LiveFaultState, StartsFromTheBaseFaultSet) {
  FaultSet base(4);
  base.fail_link(2, 1, false);
  base.fail_node(9, 2);
  const FaultSchedule empty(4);
  const LiveFaultState live(base, empty);
  EXPECT_EQ(live.num_dead_links(), base.num_dead_links());
  EXPECT_EQ(live.num_dead_nodes(), base.num_dead_nodes());
  for (u64 link = 0; link < base.num_links(); ++link) {
    ASSERT_EQ(live.link_alive_index(link), base.link_alive_index(link)) << link;
  }
  EXPECT_FALSE(live.node_alive(9, 2));
  EXPECT_THROW(LiveFaultState(FaultSet(3), empty), InvalidArgument);
}

TEST(LiveFaultState, CountsOverlappingCausesAndRepairsSoundly) {
  // A node fault and an explicit link fault both hold (0, 1, straight) dead.
  FaultSchedule s(3);
  s.fail_node_at(10, 0, 1);
  s.fail_link_at(10, 0, 1, false);
  s.repair_node_at(20, 0, 1);  // link still held by the explicit fault
  s.repair_link_at(30, 0, 1, false);
  s.repair_link_at(40, 0, 1, false);  // surplus repair: a no-op
  const FaultSet none(3);
  LiveFaultState live(none, s);
  for (u64 cycle = 0; cycle <= 45; ++cycle) live.advance_to(cycle, nullptr);
  EXPECT_TRUE(live.link_alive(0, 1, false));
  EXPECT_TRUE(live.node_alive(0, 1));
  EXPECT_EQ(live.num_dead_links(), 0u);
  EXPECT_EQ(live.num_dead_nodes(), 0u);
  EXPECT_EQ(live.stats().fail_events, 2u);
  EXPECT_EQ(live.stats().repair_events, 3u);

  // Same timeline, repairs in the opposite order: the link must stay dead
  // between the link repair and the node repair.
  FaultSchedule t(3);
  t.fail_node_at(10, 0, 1);
  t.fail_link_at(10, 0, 1, false);
  t.repair_link_at(20, 0, 1, false);
  t.repair_node_at(30, 0, 1);
  LiveFaultState live2(none, t);
  for (u64 cycle = 0; cycle <= 25; ++cycle) live2.advance_to(cycle, nullptr);
  EXPECT_FALSE(live2.link_alive(0, 1, false));  // node cause still standing
  live2.advance_to(30, nullptr);
  EXPECT_TRUE(live2.link_alive(0, 1, false));
}

TEST(LiveFaultState, ReportsNewlyDeadLinksOnce) {
  FaultSchedule s(3);
  s.fail_link_at(5, 1, 0, false);
  s.fail_link_at(5, 1, 0, true);
  s.fail_link_at(5, 1, 0, true);  // duplicate cause, one transition
  const FaultSet none(3);
  LiveFaultState live(none, s);
  std::vector<u64> newly;
  live.advance_to(4, &newly);
  EXPECT_TRUE(newly.empty());
  live.advance_to(5, &newly);
  ASSERT_EQ(newly.size(), 2u);
  EXPECT_LT(newly[0], newly[1]);  // ascending dense indices
  live.advance_to(6, &newly);
  EXPECT_TRUE(newly.empty());  // already dead: no new transition
}

TEST(LiveFaultState, SpareChipFailoverRemapsAfterDetectionLatency) {
  FaultSchedule s(4);
  s.attach_plan({2, 2}, 2);  // 4 chips of 4 rows
  s.set_failover({/*spare_chips=*/1, /*detection_latency=*/50});
  s.fail_chip_at(100, 1);
  s.fail_chip_at(300, 2);  // no spare left: stays dead
  const FaultSet none(4);
  LiveFaultState live(none, s);
  live.advance_to(99, nullptr);
  EXPECT_EQ(live.num_dead_nodes(), 0u);
  live.advance_to(100, nullptr);
  EXPECT_GT(live.num_dead_nodes(), 0u);
  EXPECT_EQ(live.stats().spares_used, 1u);
  EXPECT_EQ(live.stats().failovers, 0u);
  live.advance_to(149, nullptr);
  EXPECT_GT(live.num_dead_nodes(), 0u);  // detection latency not yet elapsed
  live.advance_to(150, nullptr);
  EXPECT_EQ(live.num_dead_nodes(), 0u);  // spare wired in
  EXPECT_EQ(live.num_dead_links(), 0u);
  EXPECT_EQ(live.stats().failovers, 1u);
  for (u64 cycle = 151; cycle <= 500; ++cycle) live.advance_to(cycle, nullptr);
  EXPECT_GT(live.num_dead_nodes(), 0u);  // chip 2 has no spare
  EXPECT_EQ(live.stats().spares_used, 1u);
  EXPECT_EQ(live.stats().failovers, 1u);
}

// --- engine equivalence ------------------------------------------------------

TEST(LiveEngine, EmptyScheduleMatchesStaticPathBitwise) {
  const int n = 5;
  const FaultSet faults = FaultSet::random_links(n, 0.05, 13);
  const FaultSchedule empty(n);
  const FaultSaturationPoint live =
      simulate_saturation_faulty(n, 0.5, 1200, 9, faults, {}, 200, 0, nullptr, nullptr,
                                 nullptr, nullptr, &empty);
  const FaultSaturationPoint fixed =
      simulate_saturation_faulty(n, 0.5, 1200, 9, faults, {}, 200);
  expect_fsp_eq(live, fixed);
  EXPECT_EQ(live.live.fail_events, 0u);
  EXPECT_EQ(live.live.links_killed, 0u);
}

TEST(LiveEngine, CycleZeroScheduleMatchesEquivalentStaticFaultSetBitwise) {
  const int n = 5;
  // The same random fault map, expressed once as a static FaultSet and once
  // as a schedule of cycle-0 fail events over a pristine base.
  const FaultSet statics = FaultSet::random_links(n, 0.06, 21);
  FaultSchedule schedule(n);
  for (u64 link = 0; link < statics.num_links(); ++link) {
    if (statics.link_alive_index(link)) continue;
    const u64 rows = pow2(n);
    const u64 row = (link / 2) % rows;
    const int stage = static_cast<int>(link / (2 * rows));
    schedule.fail_link_at(0, row, stage, (link & 1) != 0);
  }
  const FaultSet none(n);
  for (const u64 capacity : {u64{0}, u64{3}}) {
    SCOPED_TRACE(capacity);
    const FaultSaturationPoint live = simulate_saturation_faulty(
        n, 0.6, 1000, 17, none, {}, 100, capacity, nullptr, nullptr, nullptr, nullptr,
        &schedule);
    const FaultSaturationPoint fixed =
        simulate_saturation_faulty(n, 0.6, 1000, 17, statics, {}, 100, capacity);
    expect_fsp_eq(live, fixed);
    // Events at cycle 0 precede all routing, so nothing was in flight to kill.
    EXPECT_EQ(live.tally.dropped[drop_index(DropReason::kKilledByFault)], 0u);
    EXPECT_EQ(live.live.links_killed, statics.num_dead_links());
  }
}

TEST(LiveEngine, MidRunFaultKillsOrDeflectsInFlightPackets) {
  const int n = 5;
  const FaultSet none(n);
  // Kill every stage-2 link at cycle 500 of a busy run: under kKillInFlight
  // the resident packets drop as kKilledByFault; under kDeflect they stay
  // queued and drain through the router's liveness checks.
  const auto build = [&](LinkDeathPolicy policy) {
    FaultSchedule s(n);
    for (u64 row = 0; row < pow2(n); ++row) {
      s.fail_link_at(500, row, 2, false);
      s.fail_link_at(500, row, 2, true);
    }
    s.set_link_death_policy(policy);
    return s;
  };
  const FaultSchedule kill = build(LinkDeathPolicy::kKillInFlight);
  const FaultSchedule deflect = build(LinkDeathPolicy::kDeflect);
  const auto run = [&](const FaultSchedule& s) {
    return simulate_saturation_faulty(n, 0.8, 1000, 3, none, {}, 0, 0, nullptr, nullptr,
                                      nullptr, nullptr, &s);
  };
  const FaultSaturationPoint killed = run(kill);
  EXPECT_GT(killed.tally.dropped[drop_index(DropReason::kKilledByFault)], 0u);
  EXPECT_EQ(killed.live.links_killed, 2 * pow2(n));
  const FaultSaturationPoint deflected = run(deflect);
  EXPECT_EQ(deflected.tally.dropped[drop_index(DropReason::kKilledByFault)], 0u);
  // Stage 2 is fully severed either way: everything injected after the fault
  // that needs to pass stage 2 is eventually dropped at the dead wall.
  EXPECT_GT(deflected.tally.dropped[drop_index(DropReason::kNoAliveLink)] +
                deflected.tally.dropped[drop_index(DropReason::kBudgetExhausted)],
            0u);
  // Both modes are deterministic.
  expect_fsp_eq(killed, run(kill));
  expect_fsp_eq(deflected, run(deflect));
}

// --- sweep / exec integration ------------------------------------------------

TEST(LiveSweep, ValidatesScheduleDimensionAndBudgets) {
  const FaultSchedule wrong(3);
  SweepPoint p;
  p.n = 4;
  p.offered_load = 0.5;
  p.cycles = 100;
  p.schedule = &wrong;
  try {
    saturation_sweep({&p, 1});
    FAIL() << "dimension mismatch accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("sweep point 0"), std::string::npos) << e.what();
  }
  const FaultSchedule right(4);
  p.schedule = &right;
  p.routing.misroute_budget = -1;
  EXPECT_THROW(saturation_sweep({&p, 1}), InvalidArgument);
  p.routing.misroute_budget = 8;
  p.routing.wrap_budget = -1;
  EXPECT_THROW(saturation_sweep({&p, 1}), InvalidArgument);
  p.routing.wrap_budget = 2;
  EXPECT_EQ(saturation_sweep({&p, 1}).size(), 1u);
  EXPECT_TRUE(sweep_point_is_faulty(p));
  p.schedule = nullptr;
  EXPECT_FALSE(sweep_point_is_faulty(p));
}

TEST(LiveSweep, ScheduleJoinsTheCheckpointKey) {
  SweepPoint p;
  p.n = 4;
  p.offered_load = 0.5;
  p.cycles = 200;
  const std::string bare = exec::sweep_point_key(p);
  const FaultSchedule empty(4);
  p.schedule = &empty;
  const std::string with_empty = exec::sweep_point_key(p);
  EXPECT_NE(with_empty, bare);  // presence alone reroutes the engine
  FaultSchedule one(4);
  one.fail_link_at(50, 1, 1, false);
  p.schedule = &one;
  const std::string with_one = exec::sweep_point_key(p);
  EXPECT_NE(with_one, with_empty);
  // Policies are outcome-relevant, so they key too.
  FaultSchedule policy = one;
  policy.set_link_death_policy(LinkDeathPolicy::kDeflect);
  p.schedule = &policy;
  EXPECT_NE(exec::sweep_point_key(p), with_one);
}

TEST(LiveSweep, ScheduledPointsKillResumeBitIdenticalAtEveryPrefix) {
  // The exec contract extended to live points: a mixed grid (pristine,
  // static-faulted, scheduled with telemetry) must resume bit-identically
  // from every journal prefix, with a different pool size on resume.
  const FaultSet statics = FaultSet::random_links(4, 0.05, 31);
  FaultSchedule schedule(4);
  schedule.fail_link_at(100, 3, 1, false);
  schedule.fail_node_at(150, 9, 2);
  schedule.repair_node_at(220, 9, 2);
  std::vector<SweepPoint> points;
  for (int i = 0; i < 3; ++i) {
    SweepPoint p;
    p.n = 4;
    p.offered_load = 0.6;
    p.cycles = 300;
    p.seed = 5;
    points.push_back(p);
  }
  points[1].faults = &statics;
  points[2].schedule = &schedule;
  points[2].telemetry_budget = 32;

  exec::SweepRunOptions serial;
  serial.threads = 1;
  const std::vector<SweepOutcome> baseline =
      exec::run_sweep_resumable(points, serial).outcomes;
  EXPECT_GT(baseline[2].live.fail_events, 0u);

  const std::string path = ::testing::TempDir() + "bfly_sched_resume.ckpt";
  for (std::size_t k = 1; k < points.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "kill after " << k << " points");
    std::remove(path.c_str());
    CancelToken token;
    exec::SweepRunOptions kill;
    kill.threads = 1;
    kill.checkpoint_path = path;
    kill.cancel = &token;
    kill.after_checkpoint = [&](std::size_t appended) {
      if (appended == k) token.request_cancel();
    };
    EXPECT_EQ(exec::run_sweep_resumable(points, kill).status, exec::SweepStatus::kCancelled);

    exec::SweepRunOptions resume;
    resume.threads = 3;
    resume.checkpoint_path = path;
    const exec::SweepRun resumed = exec::run_sweep_resumable(points, resume);
    EXPECT_EQ(resumed.status, exec::SweepStatus::kComplete);
    EXPECT_EQ(resumed.num_replayed, k);
    ASSERT_EQ(resumed.outcomes.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(resumed.outcomes[i].point.delivered, baseline[i].point.delivered);
      EXPECT_EQ(resumed.outcomes[i].point.throughput, baseline[i].point.throughput);
      EXPECT_EQ(resumed.outcomes[i].tally.dropped, baseline[i].tally.dropped);
      // The live counters replay through the v4 journal too.
      EXPECT_TRUE(resumed.outcomes[i].live == baseline[i].live);
      EXPECT_TRUE(resumed.outcomes[i].timeseries == baseline[i].timeseries);
    }
  }
  std::remove(path.c_str());
}

// --- recovery analytics ------------------------------------------------------

TEST(Recovery, MeasuresTimeToRecoverAndTransientLoss) {
  // Sever all of stage 2 at cycle 800, repair at 1200: throughput collapses
  // and must re-enter the pre-fault band only after the repair.
  const int n = 5;
  FaultSchedule schedule(n);
  for (u64 row = 0; row < pow2(n); ++row) {
    schedule.fail_link_at(800, row, 2, false);
    schedule.fail_link_at(800, row, 2, true);
    schedule.repair_link_at(1200, row, 2, false);
    schedule.repair_link_at(1200, row, 2, true);
  }
  SweepPoint p;
  p.n = n;
  p.offered_load = 0.7;
  p.cycles = 2400;
  p.seed = 11;
  p.telemetry_budget = 256;
  p.schedule = &schedule;
  const std::vector<SweepOutcome> out = saturation_sweep({&p, 1});
  const RecoveryAnalysis rec = analyze_recovery(out[0].timeseries, schedule);
  ASSERT_FALSE(out[0].timeseries.empty());
  ASSERT_TRUE(rec.applicable);
  ASSERT_EQ(rec.events.size(), 1u);  // one distinct fail cycle
  const RecoveryEvent& ev = rec.events[0];
  EXPECT_EQ(ev.fault_cycle, 800u);
  EXPECT_GT(ev.pre_throughput, 0.0);
  EXPECT_TRUE(ev.recovered);
  EXPECT_GT(ev.time_to_recover_cycles, 0u);
  EXPECT_LE(ev.recovered_cycle, 2400u);
  EXPECT_GT(ev.packets_lost, 0u);  // the severed stage drops traffic
  EXPECT_GE(ev.recovered_cycle, 1200u);  // can't re-enter the band before repair
  EXPECT_EQ(rec.packets_lost_total, ev.packets_lost);
  EXPECT_EQ(rec.events_recovered, 1u);
  // Fully repaired: the residual level is within the tolerance band of 1.
  EXPECT_GT(rec.residual_throughput, 0.8);
  // Pure function of (series, schedule): bitwise repeatable.
  const RecoveryAnalysis again = analyze_recovery(out[0].timeseries, schedule);
  EXPECT_EQ(again.events[0].time_to_recover_cycles, ev.time_to_recover_cycles);
  EXPECT_EQ(again.events[0].packets_lost, ev.packets_lost);
  EXPECT_EQ(again.residual_throughput, rec.residual_throughput);
}

TEST(Recovery, DegradesWithoutTelemetryAndValidatesOptions) {
  const obs::TimeSeries empty;
  const FaultSchedule schedule(4);
  const RecoveryAnalysis rec = analyze_recovery(empty, schedule);
  EXPECT_FALSE(rec.applicable);
  EXPECT_TRUE(rec.events.empty());
  EXPECT_EQ(rec.residual_throughput, 0.0);
  EXPECT_THROW(analyze_recovery(empty, schedule, {.window = 0}), InvalidArgument);
  EXPECT_THROW(analyze_recovery(empty, schedule, {.tolerance = 1.5}), InvalidArgument);
}

TEST(Recovery, AvailabilityCurveIsDeterministicAndOrdered) {
  const std::vector<u64> mtbf = {400'000, 60'000};
  const std::vector<u64> mttr = {200, 800};
  AvailabilityOptions options;
  options.sim_cycles = 800;
  options.telemetry_budget = 64;
  const std::vector<AvailabilityPoint> curve = availability_curve(4, mtbf, mttr, 5, options);
  ASSERT_EQ(curve.size(), 2u);
  for (const AvailabilityPoint& pt : curve) {
    EXPECT_GT(pt.availability, 0.0);
    EXPECT_LE(pt.availability, 1.0 + 1e-9);
    EXPECT_GE(pt.fail_events, pt.repair_events > 0 ? 1u : 0u);
  }
  const std::vector<AvailabilityPoint> again = availability_curve(4, mtbf, mttr, 5, options);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].availability, again[i].availability) << i;
    EXPECT_EQ(curve[i].fail_events, again[i].fail_events) << i;
    EXPECT_EQ(curve[i].packets_killed, again[i].packets_killed) << i;
  }
  // Index-carrying validation, mirroring validate_sweep_point's style.
  try {
    availability_curve(4, std::vector<u64>{1}, std::vector<u64>{10}, 5, options);
    FAIL() << "mtbf = 1 accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("pair 0"), std::string::npos) << e.what();
  }
  EXPECT_THROW(availability_curve(4, mtbf, std::vector<u64>{200}, 5, options),
               InvalidArgument);
}

}  // namespace
}  // namespace bfly
