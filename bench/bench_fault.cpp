// Experiment F: graceful degradation of the butterfly under faults.
//
// Two reproduction tables:
//   * the degradation curve of B_8 — BFS-oracle reachability, the budgeted
//     router's delivered fraction and drop breakdown, and saturation
//     throughput/latency, swept over random link-fault rates;
//   * single-chip failure sensitivity of the Section 5 package (B_9 on 64
//     pin-limited chips): what the worst chip failure costs in surviving
//     reachability and dead board-channel links.
//
// Two resilience tables:
//   * a scripted live-fault run of B_8 — a chip of the Section 5 plan dies
//     mid-run, a provisioned spare chip takes over after the detection
//     latency, and a link fails and is repaired later; the recovery
//     analytics (time-to-recover, transient packet loss, residual
//     throughput) gate exactly;
//   * an availability curve — seeded random MTBF/MTTR link schedules on B_6
//     against a pristine baseline.
//
// Every number in artifact_stats is seeded and bitwise deterministic (the
// fault subsystem's determinism contract), so the baseline gate compares
// them exactly; only wall-clock spans get loose thresholds.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/bfly.hpp"

namespace {

using namespace bfly;

constexpr int kCurveN = 8;
constexpr u64 kCurveSeed = 2026;

DegradationOptions curve_options() {
  DegradationOptions options;
  options.census_packets = 500'000;
  options.sim_cycles = 2000;
  options.sim_warmup = 200;
  options.offered_load = 0.6;
  return options;
}

const std::vector<double>& curve_rates() {
  static const std::vector<double> rates = {0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};
  return rates;
}

std::vector<DegradationPoint> print_degradation_curve(bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "=== F1: graceful degradation of B_%d under random link faults ===\n",
               kCurveN);
  std::fprintf(stderr, "%8s %6s %8s %11s %9s %9s %10s %10s %9s\n", "rate", "dead", "reach",
               "delivered", "misroute", "wraps", "dropped", "thruput", "latency");
  // The split degradation API: the per-rate queued simulations run through the
  // resilient driver (checkpointed under $BFLY_CHECKPOINT_DIR), then the
  // serial census/reachability instruments assemble the curve.  Bitwise
  // identical to the degradation_curve() convenience wrapper.
  BFLY_TRACE_SCOPE("fault.degradation_curve");
  const DegradationSweep sweep =
      degradation_sweep(kCurveN, curve_rates(), kCurveSeed, curve_options());
  const std::vector<SweepOutcome> sims =
      session->resilient_sweep("degradation", sweep.sweep_points);
  const std::vector<DegradationPoint> curve = degradation_curve_from(
      kCurveN, curve_rates(), kCurveSeed, curve_options(), sweep, sims);
  for (const DegradationPoint& pt : curve) {
    const u64 dropped = pt.dropped_endpoint + pt.dropped_no_alive_link + pt.dropped_budget;
    std::fprintf(stderr, "%8.3f %6llu %8.4f %10.2f%% %9llu %9llu %10llu %10.4f %9.2f\n",
                 pt.link_fault_rate, static_cast<unsigned long long>(pt.dead_links),
                 pt.reachability, 100.0 * pt.delivered_fraction,
                 static_cast<unsigned long long>(pt.misroutes),
                 static_cast<unsigned long long>(pt.wraps),
                 static_cast<unsigned long long>(dropped), pt.throughput, pt.avg_latency);
  }
  std::fprintf(stderr,
               "reach = exact BFS-oracle pair reachability; delivered = budgeted router\n"
               "(misroute %d / wrap %d).  The fabric degrades gracefully: a few %% of dead\n"
               "links costs a few %% of pairs, not a partition.\n\n",
               FaultRoutingOptions{}.misroute_budget, FaultRoutingOptions{}.wrap_budget);
  return curve;
}

SpareChipSummary print_spare_chip_table(const HierarchicalPlan& plan) {
  std::fprintf(stderr, "--- single-chip failure sweep of the Section 5 package (B_%d) ---\n",
               plan.n);
  const SpareChipSummary summary = spare_chip_sensitivity(plan);
  std::fprintf(stderr, "%28s %12llu\n", "chips",
               static_cast<unsigned long long>(summary.num_chips));
  std::fprintf(stderr, "%28s %12llu\n", "nodes lost per failure",
               static_cast<unsigned long long>(summary.nodes_per_chip));
  std::fprintf(stderr, "%28s %6llu..%llu\n", "dead off-module links",
               static_cast<unsigned long long>(summary.min_dead_offmodule_links),
               static_cast<unsigned long long>(summary.max_dead_offmodule_links));
  std::fprintf(stderr, "%28s %12.4f\n", "best surviving reachability", summary.best_reachability);
  std::fprintf(stderr, "%28s %12.4f  (chip %llu)\n", "worst surviving reachability",
               summary.worst_reachability, static_cast<unsigned long long>(summary.worst_chip));
  std::fprintf(stderr,
               "any single chip failure costs the same node block; reachability stays\n"
               "above %.0f%%, so one spare chip per board restores full service.\n\n",
               100.0 * summary.worst_reachability);
  return summary;
}

json::Value curve_artifact(const std::vector<DegradationPoint>& curve) {
  json::Value arr = json::Value::array();
  for (const DegradationPoint& pt : curve) {
    json::Value o = json::Value::object();
    o.set("rate", json::Value::number(pt.link_fault_rate));
    o.set("dead_links", json::Value::number(pt.dead_links));
    o.set("reachability", json::Value::number(pt.reachability));
    o.set("reachability_exact", json::Value::boolean(pt.reachability_exact));
    o.set("delivered_fraction", json::Value::number(pt.delivered_fraction));
    o.set("dropped_endpoint", json::Value::number(pt.dropped_endpoint));
    o.set("dropped_no_alive_link", json::Value::number(pt.dropped_no_alive_link));
    o.set("dropped_budget", json::Value::number(pt.dropped_budget));
    o.set("misroutes", json::Value::number(pt.misroutes));
    o.set("wraps", json::Value::number(pt.wraps));
    o.set("throughput", json::Value::number(pt.throughput));
    o.set("avg_latency", json::Value::number(pt.avg_latency));
    o.set("sim_delivered", json::Value::number(pt.sim_delivered));
    arr.push_back(std::move(o));
  }
  return arr;
}

json::Value spare_chip_artifact(const SpareChipSummary& summary) {
  json::Value o = json::Value::object();
  o.set("num_chips", json::Value::number(summary.num_chips));
  o.set("nodes_per_chip", json::Value::number(summary.nodes_per_chip));
  o.set("min_dead_offmodule_links", json::Value::number(summary.min_dead_offmodule_links));
  o.set("max_dead_offmodule_links", json::Value::number(summary.max_dead_offmodule_links));
  o.set("best_reachability", json::Value::number(summary.best_reachability));
  o.set("worst_reachability", json::Value::number(summary.worst_reachability));
  o.set("worst_chip", json::Value::number(summary.worst_chip));
  return o;
}

// --- live faults -------------------------------------------------------------

constexpr int kLiveN = 8;
constexpr u64 kLiveSeed = 91;
constexpr u64 kLiveCycles = 4000;
constexpr u64 kLiveChip = 2;
constexpr u64 kLiveChipFailCycle = 1000;
constexpr u64 kLiveDetectionLatency = 200;

/// The scripted fail -> failover -> repair timeline: chip kLiveChip of the
/// B_8 packaging plan dies at cycle 1000 and is absorbed by the one spare
/// after 200 cycles of detection latency; later one cross link fails and is
/// explicitly repaired.
FaultSchedule live_schedule() {
  FaultSchedule schedule(kLiveN);
  schedule.attach_plan(plan_hierarchical(kLiveN, {}));
  schedule.set_failover({/*spare_chips=*/1, /*detection_latency=*/kLiveDetectionLatency});
  schedule.fail_chip_at(kLiveChipFailCycle, kLiveChip);
  schedule.fail_link_at(2500, /*row=*/5, /*stage=*/3, /*cross=*/true);
  schedule.repair_link_at(2800, /*row=*/5, /*stage=*/3, /*cross=*/true);
  return schedule;
}

void print_live_fault_table(bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "=== F2: live fault -> spare-chip failover -> repair (B_%d) ===\n",
               kLiveN);
  const FaultSchedule schedule = live_schedule();
  // Point 0 is the pristine reference, point 1 runs the schedule; both
  // record the cycle-resolved series the recovery analysis reads.
  std::vector<SweepPoint> points(2);
  for (SweepPoint& p : points) {
    p.n = kLiveN;
    p.offered_load = 0.6;
    p.cycles = kLiveCycles;
    p.seed = kLiveSeed;
    p.telemetry_budget = 512;
  }
  points[1].schedule = &schedule;
  const std::vector<SweepOutcome> sims = session->resilient_sweep("live_fault", points);

  const LiveFaultStats& live = sims[1].live;
  std::fprintf(stderr,
               "schedule: chip %llu fails @%llu (1 spare, detection %llu), link (5,3,x)"
               " fails @2500, repaired @2800\n"
               "applied: %llu fail / %llu repair events, %llu failover(s) (%llu spare(s)),"
               " links killed %llu / revived %llu\n",
               static_cast<unsigned long long>(kLiveChip),
               static_cast<unsigned long long>(kLiveChipFailCycle),
               static_cast<unsigned long long>(kLiveDetectionLatency),
               static_cast<unsigned long long>(live.fail_events),
               static_cast<unsigned long long>(live.repair_events),
               static_cast<unsigned long long>(live.failovers),
               static_cast<unsigned long long>(live.spares_used),
               static_cast<unsigned long long>(live.links_killed),
               static_cast<unsigned long long>(live.links_revived));

  json::Value live_artifact = json::Value::object();
  live_artifact.set("fail_events", json::Value::number(live.fail_events));
  live_artifact.set("repair_events", json::Value::number(live.repair_events));
  live_artifact.set("failovers", json::Value::number(live.failovers));
  live_artifact.set("spares_used", json::Value::number(live.spares_used));
  live_artifact.set("links_killed", json::Value::number(live.links_killed));
  live_artifact.set("links_revived", json::Value::number(live.links_revived));
  live_artifact.set("packets_killed",
                    json::Value::number(
                        sims[1].tally.dropped[drop_index(DropReason::kKilledByFault)]));
  session->artifact("live_fault", std::move(live_artifact));

  // The schedule itself is reproducible input: exported for CI artifact
  // upload when $BFLY_SCHEDULE_FILE names a path.
  if (const char* path = std::getenv("BFLY_SCHEDULE_FILE")) {
    if (path[0] != '\0') util::atomic_write_file(path, schedule.to_json().dump() + "\n");
  }

  const RecoveryAnalysis rec = analyze_recovery(sims[1].timeseries, schedule);
  if (!rec.applicable) {
    // A checkpoint replay may carry no series; keep the report valid without
    // the recovery block (the gate skips it, like the histogram exports).
    std::fprintf(stderr, "no telemetry series recorded; recovery analysis skipped\n\n");
    return;
  }
  std::fprintf(stderr, "%10s %10s %11s %10s %6s %13s\n", "fault@", "pre-thru", "recovered",
               "recov@", "ttr", "packets lost");
  json::Value rec_artifact = json::Value::array();
  for (const RecoveryEvent& ev : rec.events) {
    std::fprintf(stderr, "%10llu %10.4f %11s %10llu %6llu %13llu\n",
                 static_cast<unsigned long long>(ev.fault_cycle), ev.pre_throughput,
                 ev.recovered ? "yes" : "NO",
                 static_cast<unsigned long long>(ev.recovered_cycle),
                 static_cast<unsigned long long>(ev.time_to_recover_cycles),
                 static_cast<unsigned long long>(ev.packets_lost));
    json::Value o = json::Value::object();
    o.set("fault_cycle", json::Value::number(ev.fault_cycle));
    o.set("pre_throughput", json::Value::number(ev.pre_throughput));
    o.set("recovered", json::Value::boolean(ev.recovered));
    o.set("recovered_cycle", json::Value::number(ev.recovered_cycle));
    o.set("time_to_recover_cycles", json::Value::number(ev.time_to_recover_cycles));
    o.set("packets_lost", json::Value::number(ev.packets_lost));
    rec_artifact.push_back(std::move(o));
  }
  std::fprintf(stderr,
               "residual throughput after all repairs: %.4f of the pre-fault steady state\n\n",
               rec.residual_throughput);
  session->artifact("recovery", std::move(rec_artifact));
  // The headline scalars the gate matches exactly: the chip failure's
  // recovery time, the total transient loss, and the residual level.
  session->artifact("recovery_time_to_recover_cycles",
                    static_cast<double>(rec.events.empty()
                                            ? 0
                                            : rec.events.front().time_to_recover_cycles));
  session->artifact("recovery_packets_lost", static_cast<double>(rec.packets_lost_total));
  session->artifact("failover_residual_throughput", rec.residual_throughput);
  // The scheduled point's series (with its dead_links channel stepping at
  // the fault epochs) rides along as the report's v2 telemetry block.
  session->timeseries(sims[1].timeseries.to_json());
}

constexpr int kAvailN = 6;
constexpr u64 kAvailSeed = 7;

const std::vector<u64>& avail_mtbf() {
  static const std::vector<u64> v = {200'000, 50'000};
  return v;
}
const std::vector<u64>& avail_mttr() {
  static const std::vector<u64> v = {300, 1'000};
  return v;
}

AvailabilityOptions avail_options() {
  AvailabilityOptions options;
  options.sim_cycles = 3000;
  options.offered_load = 0.6;
  options.telemetry_budget = 256;
  return options;
}

void print_availability_table(bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "--- availability under random MTBF/MTTR link schedules (B_%d) ---\n",
               kAvailN);
  const AvailabilityOptions options = avail_options();
  const AvailabilitySweep sweep =
      availability_sweep(kAvailN, avail_mtbf(), avail_mttr(), kAvailSeed, options);
  const std::vector<SweepOutcome> sims =
      session->resilient_sweep("availability", sweep.sweep_points);
  const std::vector<AvailabilityPoint> curve = availability_curve_from(
      kAvailN, avail_mtbf(), avail_mttr(), kAvailSeed, options, sweep, sims);

  std::fprintf(stderr, "%8s %6s %6s %8s %13s %9s %8s %7s %7s\n", "mtbf", "mttr", "fails",
               "repairs", "availability", "recovered", "avg ttr", "lost", "killed");
  json::Value arr = json::Value::array();
  for (const AvailabilityPoint& pt : curve) {
    std::fprintf(stderr, "%8llu %6llu %6llu %8llu %13.4f %6llu/%-2llu %8.1f %7llu %7llu\n",
                 static_cast<unsigned long long>(pt.mtbf),
                 static_cast<unsigned long long>(pt.mttr),
                 static_cast<unsigned long long>(pt.fail_events),
                 static_cast<unsigned long long>(pt.repair_events), pt.availability,
                 static_cast<unsigned long long>(pt.events_recovered),
                 static_cast<unsigned long long>(pt.events_total), pt.avg_time_to_recover,
                 static_cast<unsigned long long>(pt.packets_lost),
                 static_cast<unsigned long long>(pt.packets_killed));
    json::Value o = json::Value::object();
    o.set("mtbf", json::Value::number(pt.mtbf));
    o.set("mttr", json::Value::number(pt.mttr));
    o.set("fail_events", json::Value::number(pt.fail_events));
    o.set("repair_events", json::Value::number(pt.repair_events));
    o.set("availability", json::Value::number(pt.availability));
    o.set("avg_time_to_recover", json::Value::number(pt.avg_time_to_recover));
    o.set("events_total", json::Value::number(pt.events_total));
    o.set("events_recovered", json::Value::number(pt.events_recovered));
    o.set("packets_lost", json::Value::number(pt.packets_lost));
    o.set("packets_killed", json::Value::number(pt.packets_killed));
    arr.push_back(std::move(o));
  }
  std::fprintf(stderr,
               "availability = delivered / the pristine baseline's delivered (same load,\n"
               "cycles, seed).  Frequent short outages cost little; slow repairs dominate.\n\n");
  session->artifact("availability", std::move(arr));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bfly::bench::threads_override(argc, argv);
  bfly::bench::BenchSession session("bench_fault");
  session.threads = threads;
  session.config("threads", static_cast<double>(threads));
  session.config("curve_n", kCurveN);
  session.config("curve_seed", static_cast<double>(kCurveSeed));
  session.config("census_packets", 500'000);
  session.config("sim_cycles", 2000);
  session.config("offered_load", 0.6);

  session.config("live_n", kLiveN);
  session.config("live_seed", static_cast<double>(kLiveSeed));
  session.config("live_cycles", static_cast<double>(kLiveCycles));
  session.config("avail_n", kAvailN);
  session.config("avail_seed", static_cast<double>(kAvailSeed));

  const std::vector<DegradationPoint> curve = print_degradation_curve(&session);
  const HierarchicalPlan plan = plan_hierarchical(9, {});
  const SpareChipSummary spare = print_spare_chip_table(plan);
  print_live_fault_table(&session);
  print_availability_table(&session);

  session.artifact("degradation", curve_artifact(curve));
  session.artifact("spare_chip", spare_chip_artifact(spare));
  session.artifact_percentiles("fault.latency_cycles", "fault.latency_cycles");
  session.emit_report();
  return 0;
}
