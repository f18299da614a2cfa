// Cycle-parallel sharded saturation engine: one large butterfly on all cores.
//
// simulate_saturation / simulate_saturation_faulty advance a single B_n on a
// single thread; sweep-level parallelism (sim/sweep.hpp) only helps when a
// *grid* of simulations is wanted.  This engine parallelizes one simulation:
// the 2^n rows are partitioned into `shard_count` power-of-two blocks, each
// shard owning the contiguous per-stage link ranges of its rows in a private
// PacketArena, and all shards advance concurrently on the persistent
// ThreadPool within each cycle.
//
// Sharding geometry.  With block = 2^n / shard_count, shard k owns rows
// [k*block, (k+1)*block).  The stage-s cross link flips row bit s, so a
// packet leaves its shard only when 2^s >= block — the low log2(block)
// stages are entirely shard-local, and exactly log2(shard_count) stages
// cross.  Cross hops travel through preallocated SPSC hand-off rings
// (util/spsc_ring.hpp), one per (source shard, crossing stage), drained
// after a barrier by the receiving shard — which also makes the arrival's
// routing decision (next output link, or the terminal deliver/wrap/drop
// call), since that decision needs the destination row's queue and liveness
// state.
//
// Determinism contract.  A run is a pure function of (n, offered_load,
// cycles, seed, faults): shard_count and threads set only its speed, and
// every shard count equals simulate_saturation / simulate_saturation_faulty
// with the same seed, bit for bit (tests/test_sharded_sim.cpp checks every
// shard count up to 2^n at n = 3 and 6).  Row r's injection test and
// destination at cycle c are CounterRng(seed) draws at (c, r); at each node
// the cycle's arrivals enqueue in ascending upstream-link id, then wraps,
// then the injection, as the serial sweep does (packet_kernel.hpp says how
// the phases keep that order); and the per-shard sums merge as integers.
// Every run conserves packets exactly (every offered packet is delivered,
// dropped, or still in flight at the end).
//
// Scope.  Pristine and static-FaultSet runs (budgeted deflection routing
// with the same policy as fault/fault_routing.hpp).  Probes (telemetry,
// occupancy frames, flight traces) and live FaultSchedules run only
// through the serial entry points: sweep points that request them run
// there, with the same bits (docs/performance.md, "The
// sharded engine").  The registry sees only commutative counter merges
// (sharded.offered / injected / delivered / dropped), never gauges, so
// concurrent sharded points in one sweep stay report-deterministic.
//
// simulate_saturation_sharded takes a FaultSet, so bfly_fault defines it
// (fault/fault_routing.cpp); this header names neither fault library header.
#pragma once

#include <cstddef>

#include "routing/routing.hpp"
#include "util/cancel.hpp"

namespace bfly {

class FaultSet;

struct ShardedOptions {
  /// Power-of-two number of row blocks, <= 2^n.  0 picks the fixed default
  /// min(2^n, 8).  Never affects results, only wall-clock.
  u64 shard_count = 0;
  /// Worker cap for the per-cycle phases (0 = default_thread_count()).  Like
  /// shard_count, never affects results, only wall-clock.
  std::size_t threads = 0;
  u64 warmup_cycles = 0;
  u64 queue_capacity = 0;  ///< 0 = unbounded per-link FIFOs
  /// Deflection budgets for static-fault runs (ignored when faults == nullptr).
  FaultRoutingOptions routing{};
};

/// Result of a sharded run: the serial engines' SaturationPoint / FaultTally
/// shapes (post-warmup, same formulas), plus an exact whole-run conservation
/// ledger counted over every cycle including warmup.
struct ShardedSaturationPoint {
  SaturationPoint point;
  /// Post-warmup drop/deflection accounting; all-zero for pristine runs.
  FaultTally tally;
  u64 shard_count = 0;

  // Conservation ledger.  offered counts every injection-RNG success;
  // injected the subset that entered a queue; every offered packet is
  // eventually delivered, dropped (at injection or in the fabric), or still
  // queued when the run ends, so offered == delivered + dropped + in_flight
  // holds exactly — the engine BFLY_CHECKs it before returning.
  u64 offered_total = 0;
  u64 injected_total = 0;
  u64 delivered_total = 0;
  u64 dropped_total = 0;
  u64 in_flight_end = 0;

  bool conserved() const {
    return offered_total == delivered_total + dropped_total + in_flight_end;
  }
};

/// Runs one B_n saturation simulation sharded across the thread pool.  A
/// non-null `faults` (dimension n, static) routes with the budgeted
/// deflection policy; a non-null `cancel` is polled every kCancelPollCycles
/// cycles at the cycle barrier, stopping all shards in sync so a cancelled
/// run still returns a consistent (conservation-exact) partial result.
ShardedSaturationPoint simulate_saturation_sharded(int n, double offered_load, u64 cycles,
                                                   u64 seed, const ShardedOptions& options = {},
                                                   const FaultSet* faults = nullptr,
                                                   const CancelToken* cancel = nullptr);

}  // namespace bfly
