// Batched saturation sweeps: run many (offered_load, seed, FaultSet) queued
// simulations concurrently on the shared thread pool.
//
// Each sweep point is an independent simulation with its own RNG stream, so
// the outcome vector is bitwise identical to calling simulate_saturation /
// simulate_saturation_faulty point by point in order — for any pool size
// (tests/test_sim.cpp asserts both).  The only shared state the simulators
// touch is the obs registry: counter and histogram merges are commutative,
// and the engines' last-write-wins gauges (routing.max_queue,
// routing.throughput, fault.max_queue, fault.throughput) are re-set
// deterministically after the parallel phase from the last pristine / faulty
// point in request order, exactly as a serial run would leave them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "obs/flight.hpp"
#include "obs/timeseries.hpp"
#include "routing/routing.hpp"

namespace bfly {

/// One queued-simulation request.  `faults == nullptr` runs the pristine
/// engine (simulate_saturation); otherwise the budgeted faulty engine runs
/// against *faults, which must outlive the sweep call.
struct SweepPoint {
  int n = 0;
  double offered_load = 0.0;
  u64 cycles = 0;
  u64 seed = 0;
  u64 warmup_cycles = 0;
  u64 queue_capacity = 0;
  /// Sample budget for cycle-resolved telemetry; 0 (the default) disables the
  /// probe and leaves the engine bit-for-bit as before.  Part of the
  /// checkpoint identity (exec::sweep_point_key hashes it), since it changes
  /// what an outcome carries.
  u64 telemetry_budget = 0;
  /// Sample budget for the per-packet flight recorder (obs/flight.hpp); 0
  /// (the default) disables it.  Like telemetry_budget it is part of the
  /// checkpoint identity: it changes what an outcome carries, so
  /// exec::sweep_point_key hashes it too.
  u64 flight_budget = 0;
  const FaultSet* faults = nullptr;
  FaultRoutingOptions routing{};
  /// Live fault timeline (fault/fault_schedule.hpp); nullptr (the default)
  /// keeps the fault world static.  A non-null schedule routes the point
  /// through the faulty engine even when `faults` is null (the base state is
  /// then the empty FaultSet) and joins the checkpoint identity via its
  /// content_hash().  Must outlive the sweep call.
  const FaultSchedule* schedule = nullptr;
  /// Power-of-two shard count for the cycle-parallel engine
  /// (routing/sharded_sim.hpp); 0 (the default) keeps the serial engines.
  /// It sets only the speed: the outcome equals the shard_count == 0
  /// outcome bit for bit.  Points that also request telemetry, flight
  /// tracing, or a live schedule run on the serial engines (the probes are
  /// not wired into the sharded engine yet).  exec::sweep_point_key still
  /// hashes it (exec/checkpoint.cpp says why).
  u64 shard_count = 0;
};

/// True when the point needs the faulty engine: a static fault set, a live
/// schedule, or both.  Engine dispatch and gauge bookkeeping key off this.
inline bool sweep_point_is_faulty(const SweepPoint& point) {
  return point.faults != nullptr || point.schedule != nullptr;
}

/// The FlightRecorder a sweep point asks for: sampling seeded by the point's
/// own seed, with the admission threshold derived from the expected packet
/// count offered_load * 2^n * cycles.  Every layer that runs a point
/// (saturation_sweep, exec::run_sweep_resumable) constructs its recorder
/// through this one helper so the sampled subset is identical wherever the
/// point runs — that shared derivation is what makes checkpoint replay and
/// thread-count changes bitwise invisible.
obs::FlightRecorder make_flight_recorder(const SweepPoint& point);

/// Result of one sweep point.  `tally` is all-zero for pristine points;
/// `timeseries` is empty unless the point requested a telemetry budget (its
/// samples are a pure function of the point, so they replay bitwise
/// identically from checkpoints), and `flight` likewise holds recorded
/// per-packet traces only when the point set a flight_budget.
struct SweepOutcome {
  SaturationPoint point;
  FaultTally tally;
  /// Schedule-application counters; all zero unless the point carried one.
  LiveFaultStats live;
  obs::TimeSeries timeseries;
  obs::FlightRecorder flight;
};

/// Rejects malformed requests before any engine runs: cycles == 0,
/// warmup_cycles >= cycles, non-finite or out-of-[0,1] offered_load, and n
/// outside [1, 30] all throw InvalidArgument naming the offending point
/// index — instead of failing deep inside an engine or silently producing an
/// all-zero outcome.  Called by saturation_sweep and exec::run_sweep_resumable
/// on every point up front.
void validate_sweep_point(const SweepPoint& point, std::size_t index);

/// Runs one (already validated) sweep point through the right engine — the
/// single dispatch point shared by saturation_sweep and
/// exec::run_sweep_resumable, so engine-eligibility rules (sharded vs
/// serial, pristine vs faulty, schedule base-state) live in exactly one
/// place.  `timeseries` / `flight` may be null; a non-null `cancel` is
/// threaded into the engine.  The timeseries/flight sinks are installed
/// into the returned outcome by the *caller* (which owns their lifetime and
/// the cancellation-discard policy).
SweepOutcome run_sweep_point(const SweepPoint& point, const CancelToken* cancel,
                             obs::TimeSeries* timeseries, obs::FlightRecorder* flight);

/// Runs every point (in parallel, `threads` = max concurrency, 0 = default)
/// and returns outcomes indexed like `points`.
std::vector<SweepOutcome> saturation_sweep(std::span<const SweepPoint> points,
                                           std::size_t threads = 0);

/// Re-sets the engines' last-write-wins gauges (routing.max_queue,
/// routing.throughput, fault.max_queue, fault.throughput) from the last
/// pristine / faulty outcome in request order, exactly as a serial
/// point-by-point run would leave them.  `completed`, when non-null, marks
/// which outcome slots hold real results (resumable runs skip the rest);
/// null means all of them.  Shared by saturation_sweep and the exec layer.
void reset_sweep_gauges(std::span<const SweepPoint> points,
                        std::span<const SweepOutcome> outcomes,
                        const std::vector<std::uint8_t>* completed = nullptr);

}  // namespace bfly
