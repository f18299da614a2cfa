// Recovery analytics: what a live fault event costs, and how fast the fabric
// comes back.
//
//  * analyze_recovery() reads a scheduled run's cycle-resolved telemetry
//    (the delivered/dropped channels a telemetry_budget > 0 point records)
//    against its FaultSchedule and reports, per fail epoch: the pre-event
//    delivered-throughput steady state, the time until the delivered rate
//    re-enters a band around it (the same rolling-window mean criterion as
//    obs::steady_state_onset, anchored at the pre-event mean instead of the
//    tail reference), and the packets lost during the transient.  Everything
//    is a pure function of the (deterministic) series and schedule, so the
//    numbers are exact-gateable in CI.
//  * availability_curve() sweeps MTBF/MTTR pairs: each point runs a seeded
//    random link schedule (FaultSchedule::random_links) through the queued
//    simulator next to a pristine baseline, and reports delivered-throughput
//    availability (delivered / pristine delivered), recovery statistics, and
//    the fault-kill loss count.  Split into sweep / curve_from / curve
//    exactly like degradation_curve, so benches can route the simulations
//    through a resilient driver.
//
// Lives in bfly::sim (above fault + obs) next to degradation.hpp: the static
// world's curve measures coexistence with faults, this one measures the
// transition into and out of them.
#pragma once

#include <span>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "obs/timeseries.hpp"
#include "sim/sweep.hpp"

namespace bfly {

struct RecoveryOptions {
  /// Rolling-window width (samples) for both the pre-event reference mean
  /// and the re-entry test; obs::steady_state_onset's default.
  std::size_t window = 8;
  /// Relative band around the pre-event mean.  Re-entry is one-sided
  /// (rate >= pre * (1 - tolerance)): post-repair overshoot above the old
  /// steady state is recovery, not a violation.
  double tolerance = 0.10;
};

/// One fail epoch (all fail events scheduled at the same cycle are one
/// disturbance) and its measured recovery.
struct RecoveryEvent {
  u64 fault_cycle = 0;
  /// Mean delivered rate (packets/cycle) over the `window` samples before
  /// the epoch — the throughput the fabric must re-attain.
  double pre_throughput = 0.0;
  bool recovered = false;
  u64 recovered_cycle = 0;           ///< valid iff recovered
  u64 time_to_recover_cycles = 0;    ///< recovered_cycle - fault_cycle, iff recovered
  /// Cumulative drop-channel delta from the last pre-event sample to the
  /// recovery sample (or to the end of the series when never recovered):
  /// packets the transient cost, exact integers.
  u64 packets_lost = 0;
};

struct RecoveryAnalysis {
  /// True when the series carried the needed channels and enough samples;
  /// false leaves everything else zero (e.g. a point that ran without a
  /// telemetry budget).
  bool applicable = false;
  std::vector<RecoveryEvent> events;  ///< one per distinct fail cycle, in order
  u64 events_recovered = 0;
  u64 packets_lost_total = 0;  ///< sum of per-event transient losses
  /// Mean delivered rate over the final `window` samples divided by the
  /// first epoch's pre_throughput: the residual degradation after all
  /// repairs settled (1.0 = full recovery, < 1 = lasting damage, 0 when no
  /// epoch had a measurable pre state).
  double residual_throughput = 0.0;
};

/// Analyzes one scheduled run.  `timeseries` must come from the engine that
/// ran `schedule` (the delivered/dropped channels are read; fail epochs come
/// from the schedule).  Returns applicable = false rather than throwing when
/// the series is empty or lacks the channels.
RecoveryAnalysis analyze_recovery(const obs::TimeSeries& timeseries,
                                  const FaultSchedule& schedule,
                                  const RecoveryOptions& options = {});

struct AvailabilityOptions {
  u64 sim_cycles = 4000;
  u64 sim_warmup = 0;  ///< keep 0: the availability ratio wants whole-run counts
  double offered_load = 0.6;
  u64 queue_capacity = 0;
  /// Telemetry budget for each point (>= 2); recovery analytics need the
  /// cycle-resolved series, so unlike other sweeps this is on by default.
  u64 telemetry_budget = 256;
  FaultRoutingOptions routing{};
  RecoveryOptions recovery{};
  LinkDeathPolicy link_death = LinkDeathPolicy::kKillInFlight;
};

struct AvailabilityPoint {
  u64 mtbf = 0;  ///< mean cycles between failures, per link
  u64 mttr = 0;  ///< mean cycles to repair, per link
  u64 fail_events = 0;    ///< schedule fail events applied during the run
  u64 repair_events = 0;
  /// Delivered packets / the pristine baseline's delivered packets (same
  /// load, cycles, and seed): the service level the fault process leaves.
  double availability = 0.0;
  double avg_time_to_recover = 0.0;  ///< over recovered epochs (0 when none)
  u64 events_total = 0;              ///< distinct fail epochs
  u64 events_recovered = 0;
  u64 packets_lost = 0;    ///< transient losses (recovery analysis)
  u64 packets_killed = 0;  ///< DropReason::kKilledByFault tally
};

/// The queued-simulation half of an availability curve, split like
/// DegradationSweep: sweep_points[0] is the pristine baseline,
/// sweep_points[i + 1] runs schedules[i] (the seeded random link schedule
/// for (mtbf[i], mttr[i])).  Keep the struct alive until the sweep has run.
struct AvailabilitySweep {
  std::vector<FaultSchedule> schedules;
  std::vector<SweepPoint> sweep_points;
};

/// Builds the baseline point plus one scheduled point per (mtbf, mttr) pair.
/// `mtbf` and `mttr` are paired spans of equal length; entries are validated
/// with index-carrying messages (mtbf >= 2, mttr >= 1).  The schedule for
/// pair i is FaultSchedule::random_links(n, mtbf[i], mttr[i], sim_cycles,
/// mix(seed, i)).
AvailabilitySweep availability_sweep(int n, std::span<const u64> mtbf,
                                     std::span<const u64> mttr, u64 seed,
                                     const AvailabilityOptions& options = {});

/// Assembles the curve from an availability_sweep()'s outcomes.  `sims` must
/// be the outcome vector of running `sweep.sweep_points` (any driver).
std::vector<AvailabilityPoint> availability_curve_from(int n, std::span<const u64> mtbf,
                                                       std::span<const u64> mttr, u64 seed,
                                                       const AvailabilityOptions& options,
                                                       const AvailabilitySweep& sweep,
                                                       std::span<const SweepOutcome> sims);

/// Convenience wrapper: availability_sweep -> saturation_sweep ->
/// availability_curve_from.
std::vector<AvailabilityPoint> availability_curve(int n, std::span<const u64> mtbf,
                                                  std::span<const u64> mttr, u64 seed,
                                                  const AvailabilityOptions& options = {});

}  // namespace bfly
