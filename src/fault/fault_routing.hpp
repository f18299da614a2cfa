// Fault-tolerant routing on butterfly fabrics, and the degraded-mode
// counterparts of the two routing instruments (routing/routing.hpp).
//
// Policy.  Greedy bit-fixing with bounded deterministic deflection:
//
//   * At (row, s) the packet prefers the bit-fixing link (cross iff bit s of
//     row^dst differs).  If that link is dead it *misroutes* over the other
//     stage-s link when that one is alive and misroute budget remains —
//     deliberately arriving with bit s wrong but on a different trajectory.
//   * A packet reaching stage n on the wrong row *wraps*: it re-enters the
//     fabric at (row, 0) (output-to-input recirculation, the wrapped-butterfly
//     reading of B_n) and runs another bit-fixing pass, provided wrap budget
//     remains.  Because a misroute changed the row, the second pass needs
//     different physical links, which may all be alive.
//   * A packet is dropped — and *counted, with a reason* — when both stage-s
//     links are dead (kNoAliveLink), when a budget runs out
//     (kBudgetExhausted), when its source or destination switch is dead
//     (kEndpointDead), or, in the queued simulator's bounded-queue mode, when
//     the chosen output queue is full (kQueueFull).
//
// Every routing decision is a pure function of (row, dst, FaultSet, budgets):
// no randomness beyond workload generation, so the census keeps the
// fixed-chunk seeding discipline of measure_link_loads and stays bitwise
// deterministic per seed across thread counts — and with an *empty* FaultSet
// both instruments reproduce their pristine counterparts bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "fault/fault_set.hpp"
#include "routing/routing.hpp"

namespace bfly {

/// Routes one packet from (src, stage 0) to (dst, stage n) under the policy
/// above.  When `path_links` is non-null the dense indices of the traversed
/// links are appended in order (for tests and visualization).
RouteResult route_packet(int n, const FaultSet& faults, const FaultRoutingOptions& options,
                         u64 src, u64 dst, std::vector<u64>* path_links = nullptr);

struct FaultLoadCensus {
  LoadCensus census;            ///< loads over *attempted* hops, incl. misroutes
  FaultTally tally;
  double delivered_fraction = 0.0;  ///< delivered / packets (1.0 when fault-free)
};

/// Fault-aware Monte-Carlo census: same workload, chunk seeding, and
/// determinism contract as measure_link_loads(); with an empty FaultSet the
/// embedded LoadCensus is bitwise identical to it for the same seed.
FaultLoadCensus measure_link_loads_faulty(int n, u64 packets, u64 seed,
                                          const FaultSet& faults,
                                          const FaultRoutingOptions& options = {},
                                          std::size_t threads = 0,
                                          bool keep_link_loads = false);

struct FaultSaturationPoint {
  SaturationPoint point;
  FaultTally tally;
  /// Schedule-application counters; all zero unless a FaultSchedule was
  /// attached to the run.
  LiveFaultStats live;
};

/// Fault-aware synchronous queued simulation: same injection process and RNG
/// stream as simulate_saturation(); with an empty FaultSet and
/// queue_capacity == 0 the embedded SaturationPoint is bitwise identical to
/// it.  queue_capacity > 0 bounds every output queue (drop-on-full, counted
/// as kQueueFull).  A non-null `cancel` is polled every kCancelPollCycles
/// cycles exactly like simulate_saturation: the run stops at the poll and
/// averages over the cycles actually simulated; an uncancelled run is
/// bitwise unchanged.  Non-null `timeseries` / `frames` receive the same
/// cycle-resolved telemetry as simulate_saturation (per-stage occupancy,
/// in-flight, cumulative injected/delivered/dropped/latency, arena fill),
/// deterministic and bit-unchanged when left null.  A non-null enabled
/// `flight` records per-packet hop traces (inject/advance/misroute/wrap
/// entries, deliver/drop terminals) for the deterministically sampled subset
/// — with an empty FaultSet the recorded state is bitwise identical to the
/// pristine engine's for the same parameters (the creation streams coincide).
///
/// A non-null `schedule` makes the fault world *live*: `faults` becomes the
/// cycle-0 base state and the schedule's fail/repair events apply at cycle
/// boundaries through a LiveFaultState overlay (fault/fault_schedule.hpp) —
/// spare-chip failover included.  Under LinkDeathPolicy::kKillInFlight,
/// packets resident on a link the moment it dies are drained and counted as
/// kKilledByFault before any packet moves that cycle; under kDeflect they
/// stay queued and the router deflects them on their next hop.  Determinism:
/// an *empty* schedule is bitwise identical to passing schedule == nullptr,
/// and a schedule whose events all sit at cycle 0 is bitwise identical to
/// the equivalent pre-faulted static FaultSet (events at cycle c apply
/// before cycle c routes any packet).
FaultSaturationPoint simulate_saturation_faulty(int n, double offered_load, u64 cycles,
                                                u64 seed, const FaultSet& faults,
                                                const FaultRoutingOptions& options = {},
                                                u64 warmup_cycles = 0,
                                                u64 queue_capacity = 0,
                                                const CancelToken* cancel = nullptr,
                                                obs::TimeSeries* timeseries = nullptr,
                                                obs::OccupancyFrames* frames = nullptr,
                                                obs::FlightRecorder* flight = nullptr,
                                                const FaultSchedule* schedule = nullptr);

/// BFS oracle on the faulted fabric (alive forward links plus stage-n ->
/// stage-0 recirculation): out[d] != 0 iff (d, stage n) is reachable from
/// (src_row, stage 0).  This is the ground truth the budgeted router is
/// cross-checked against: the router can only deliver reachable pairs.
std::vector<std::uint8_t> reachable_destinations(int n, const FaultSet& faults, u64 src_row);

/// Fraction of the 4^n ordered (src, dst) row pairs still routable per the
/// BFS oracle.  Exhaustive — O(4^n * n); intended for n <= ~12.
double exact_reachability(int n, const FaultSet& faults);

}  // namespace bfly
