// Random routing on butterfly networks: the empirical side of Theorem 2.1's
// lower bound.  The maximum injection rate of uniform random routing is
// Theta(1/log R) per network node (average distance Theta(log R), balanced
// link loads), so an M-node module needs Omega(M / log R) off-module links
// to sustain it -- which the Section 2.3 partitions meet within a constant.
//
// Two instruments:
//  * a Monte-Carlo link-load census over the stage-0 -> stage-n DAG
//    (multithreaded, deterministic per seed), and
//  * a synchronous queued simulation measuring delivered throughput and
//    latency as the offered load approaches saturation.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "topology/butterfly.hpp"
#include "util/bits.hpp"
#include "util/cancel.hpp"

namespace bfly::obs {
class TimeSeries;
class OccupancyFrames;
class FlightRecorder;
}  // namespace bfly::obs

namespace bfly {

/// Dense id of the forward link (row, stage) -> stage+1 (cross or straight).
inline u64 link_index(const Butterfly& bf, u64 row, int stage, bool cross) {
  return (static_cast<u64>(stage) * bf.rows() + row) * 2 + (cross ? 1 : 0);
}

/// Shortest-path length between two arbitrary butterfly nodes (rows r1, r2 at
/// stages s1, s2): the walk must sweep every stage transition whose bit
/// differs, moving left/right along the stages.
i64 butterfly_distance(int n, u64 r1, int s1, u64 r2, int s2);

struct LoadCensus {
  u64 packets = 0;
  u64 max_link_load = 0;
  double avg_link_load = 0.0;
  double imbalance = 0.0;      ///< max / avg (1.0 = perfectly balanced)
  double avg_distance = 0.0;   ///< hops per packet (= n for the DAG workload)
  /// Per-link loads indexed by link_index(); empty unless the census was run
  /// with keep_link_loads (n * 2^n * 2 entries — sized for rendering, not for
  /// the big Monte-Carlo sweeps).
  std::vector<u64> link_loads;
};

/// Routes `packets` uniform random (source row, destination row) pairs
/// through the stage-0 -> stage-n DAG (bit-fixing: cross at stage s iff bit s
/// differs) and censuses per-link loads.  Packet streams are seeded per
/// fixed-size work chunk (not per thread), so the result is bitwise
/// deterministic for a fixed seed regardless of the thread count.  With
/// `keep_link_loads` the merged per-link totals are returned in
/// LoadCensus::link_loads (for congestion heatmaps) instead of being
/// discarded after the summary statistics.
///
/// A non-null `cancel` is polled once per 2^16-packet work chunk (and by the
/// pool before each unstarted range), so a deadline or explicit cancel stops
/// the census within one chunk per in-flight worker.  A cancelled census
/// returns with only the packets routed before the trip counted — a partial
/// result the caller must discard (the serving layer answers
/// deadline_exceeded instead of using it).  A run that completes without the
/// token tripping is bitwise identical to one with cancel == nullptr.
LoadCensus measure_link_loads(int n, u64 packets, u64 seed,
                              std::size_t threads = 0 /* 0 = default */,
                              bool keep_link_loads = false,
                              const CancelToken* cancel = nullptr);

/// Average shortest-path distance between uniformly random node pairs
/// (arbitrary stages): the Theta(log R) quantity in Theorem 2.1.  Samples are
/// drawn in fixed-size chunks seeded by (seed, chunk index) and the integer
/// chunk totals are merged in chunk order, so the result is bitwise identical
/// for every thread count (0 = default).
double average_node_distance(int n, u64 samples, u64 seed,
                             std::size_t threads = 0);

// Deflection-routing vocabulary shared by every packet engine and census.
// The policy itself (bit-fixing with budgeted misroutes and wraps) is
// documented in fault/fault_routing.hpp; the pristine fabric is its
// all-alive case, where no packet ever deflects, wraps or dies in flight.

struct FaultRoutingOptions {
  /// Total deflections (wrong-link hops) a packet may take over its lifetime.
  int misroute_budget = 8;
  /// Extra stage-n -> stage-0 recirculation passes after the first.
  int wrap_budget = 2;
};

enum class DropReason : int {
  kEndpointDead = 0,    ///< source or destination switch is dead
  kNoAliveLink = 1,     ///< both forward links at the current node are dead
  kBudgetExhausted = 2, ///< misroute or wrap budget ran out
  kQueueFull = 3,       ///< bounded-queue simulator: chosen output queue full
  kKilledByFault = 4,   ///< in-flight packet on a link a live schedule killed
};
inline constexpr std::size_t kNumDropReasons = 5;

/// Index of a DropReason in FaultTally::dropped.
inline constexpr std::size_t drop_index(DropReason r) { return static_cast<std::size_t>(r); }

/// Delivery / drop / deflection accounting shared by census and simulator.
struct FaultTally {
  u64 delivered = 0;
  std::array<u64, kNumDropReasons> dropped{};  ///< indexed by DropReason
  u64 misroutes = 0;  ///< total deflected hops across all packets
  u64 wraps = 0;      ///< total recirculation passes across all packets

  u64 total_dropped() const {
    u64 t = 0;
    for (const u64 d : dropped) t += d;
    return t;
  }
};

/// Outcome of routing a single packet.
struct RouteResult {
  bool delivered = false;
  DropReason reason = DropReason::kEndpointDead;  ///< valid iff !delivered
  int hops = 0;       ///< links traversed (wraps are free)
  int misroutes = 0;
  int wraps = 0;
};

struct SaturationPoint {
  double offered_load = 0.0;     ///< injection probability per stage-0 row per cycle
  double throughput = 0.0;       ///< delivered packets per stage-0 row per cycle
  double avg_latency = 0.0;      ///< cycles from injection to delivery
  double per_node_injection = 0.0;  ///< throughput * R / N = throughput / (n+1)
  u64 delivered = 0;
  u64 max_queue = 0;
  u64 dropped_queue_full = 0;    ///< bounded-queue mode only (0 when unbounded)
};

/// How often the saturation engines poll their CancelToken: once per
/// kCancelPollCycles simulated cycles, so cancellation lands within one poll
/// batch per in-flight engine (the exec layer's latency bound).
inline constexpr u64 kCancelPollCycles = 64;

/// Synchronous store-and-forward simulation: every link moves one packet per
/// cycle; packets are injected at stage-0 rows with probability
/// `offered_load` per cycle and routed by bit-fixing.  Output queues are
/// unbounded by default; `queue_capacity > 0` bounds every output queue and
/// drops on full (counted, post-warmup, in dropped_queue_full) — making the
/// unbounded-queue assumption an explicit opt-in rather than an implicit one.
///
/// A non-null `cancel` is polled every kCancelPollCycles cycles; on
/// cancellation the simulation stops at the poll and returns rates averaged
/// over the cycles actually simulated (all-zero when cancelled before any
/// measured cycle).  A run that completes without the token tripping is
/// bitwise identical to one with cancel == nullptr.
///
/// A non-null `timeseries` receives cycle-resolved samples (per-stage queue
/// occupancy, in-flight count, cumulative injected/delivered/dropped and
/// latency sums, arena fill) under its own deterministic cycle-indexed
/// downsampling; a non-null `frames` receives full per-link occupancy
/// snapshots for heatmap-over-time rendering.  Both are keyed purely by
/// cycle index, so the samples are bitwise identical across thread counts
/// and checkpoint replay, and passing nullptr (the default) leaves the
/// simulation bit-for-bit unchanged.
///
/// A non-null enabled `flight` records full per-packet hop traces for a
/// deterministically sampled subset of packets (admission is a pure function
/// of SplitMix64(seed ^ packet id) — see obs/flight.hpp), under the same
/// observation-changes-nothing and bitwise-replay guarantees as the other
/// sinks.
SaturationPoint simulate_saturation(int n, double offered_load, u64 cycles, u64 seed,
                                    u64 warmup_cycles = 0, u64 queue_capacity = 0,
                                    const CancelToken* cancel = nullptr,
                                    obs::TimeSeries* timeseries = nullptr,
                                    obs::OccupancyFrames* frames = nullptr,
                                    obs::FlightRecorder* flight = nullptr);

/// Maximum link congestion when routing the *permutation* perm (one packet
/// per row) by bit-fixing through the DAG.  Uniform random permutations stay
/// near O(log R / log log R); the bit-reversal permutation concentrates
/// Theta(sqrt(R)) packets on single links -- the classic worst case that
/// motivates rearrangeable fabrics (Benes) for switches.
u64 permutation_congestion(int n, std::span<const u64> perm);

/// Congestion of the bit-reversal permutation (exactly 2^{floor((n-1)/2)} on
/// the middle-stage links).
u64 bit_reversal_congestion(int n);

}  // namespace bfly
