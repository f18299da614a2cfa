#include "sim/sweep.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/sharded_sim.hpp"
#include "util/parallel.hpp"

namespace bfly {

void validate_sweep_point(const SweepPoint& point, std::size_t index) {
  const std::string where = "sweep point " + std::to_string(index) + ": ";
  BFLY_REQUIRE(point.n >= 1 && point.n <= 30,
               where + "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(point.cycles > 0, where + "cycles must be positive");
  BFLY_REQUIRE(point.cycles < (u64{1} << 32), where + "cycles must be below 2^32");
  BFLY_REQUIRE(point.warmup_cycles < point.cycles,
               where + "warmup_cycles must be less than cycles");
  BFLY_REQUIRE(std::isfinite(point.offered_load), where + "offered_load must be finite");
  BFLY_REQUIRE(point.offered_load >= 0.0 && point.offered_load <= 1.0,
               where + "offered_load is a probability (must be in [0, 1])");
  BFLY_REQUIRE(point.telemetry_budget == 0 || point.telemetry_budget >= 2,
               where + "telemetry_budget must be 0 (off) or >= 2 samples");
  BFLY_REQUIRE(point.flight_budget <= (u64{1} << 32),
               where + "flight_budget is a per-point trace cap, not a packet count");
  BFLY_REQUIRE(point.routing.misroute_budget >= 0,
               where + "misroute_budget must be non-negative");
  BFLY_REQUIRE(point.routing.wrap_budget >= 0, where + "wrap_budget must be non-negative");
  if (point.faults != nullptr) {
    BFLY_REQUIRE(point.faults->dimension() == point.n,
                 where + "fault set dimension does not match n");
  }
  if (point.schedule != nullptr) {
    BFLY_REQUIRE(point.schedule->dimension() == point.n,
                 where + "fault schedule dimension does not match n");
  }
  BFLY_REQUIRE(point.shard_count == 0 ||
                   (is_pow2(point.shard_count) && point.shard_count <= pow2(point.n)),
               where + "shard_count must be 0 (serial) or a power of two at most 2^n");
}

obs::FlightRecorder make_flight_recorder(const SweepPoint& point) {
  const u64 rows = pow2(point.n);
  const double expected =
      point.offered_load * static_cast<double>(rows) * static_cast<double>(point.cycles);
  return obs::FlightRecorder(point.flight_budget, point.seed,
                             static_cast<u64>(expected), point.n, rows);
}

SweepOutcome run_sweep_point(const SweepPoint& p, const CancelToken* cancel,
                             obs::TimeSeries* timeseries, obs::FlightRecorder* flight) {
  SweepOutcome outcome;
  // Sharded eligibility: probes and live schedules run in the packet kernel
  // at shard_count 1 only, so any of those sends the point to the serial
  // entry points (documented fallback — the outcome then matches the
  // shard_count == 0 point bitwise).
  const bool sharded = p.shard_count > 0 && p.telemetry_budget == 0 &&
                       p.flight_budget == 0 && p.schedule == nullptr;
  if (sharded) {
    ShardedOptions opt;
    opt.shard_count = p.shard_count;
    opt.warmup_cycles = p.warmup_cycles;
    opt.queue_capacity = p.queue_capacity;
    opt.routing = p.routing;
    const ShardedSaturationPoint sp = simulate_saturation_sharded(
        p.n, p.offered_load, p.cycles, p.seed, opt, p.faults, cancel);
    outcome.point = sp.point;
    outcome.tally = sp.tally;
    return outcome;
  }
  if (!sweep_point_is_faulty(p)) {
    outcome.point = simulate_saturation(p.n, p.offered_load, p.cycles, p.seed,
                                        p.warmup_cycles, p.queue_capacity, cancel,
                                        timeseries, nullptr, flight);
    return outcome;
  }
  // A scheduled point without a static fault set starts from the pristine
  // base.
  std::optional<FaultSet> empty_base;
  if (p.faults == nullptr) empty_base.emplace(p.n);
  const FaultSet& base = p.faults != nullptr ? *p.faults : *empty_base;
  const FaultSaturationPoint fsp = simulate_saturation_faulty(
      p.n, p.offered_load, p.cycles, p.seed, base, p.routing, p.warmup_cycles,
      p.queue_capacity, cancel, timeseries, nullptr, flight, p.schedule);
  outcome.point = fsp.point;
  outcome.tally = fsp.tally;
  outcome.live = fsp.live;
  return outcome;
}

std::vector<SweepOutcome> saturation_sweep(std::span<const SweepPoint> points,
                                           std::size_t threads) {
  BFLY_TRACE_SCOPE("sim.saturation_sweep");
  for (std::size_t i = 0; i < points.size(); ++i) validate_sweep_point(points[i], i);
  std::vector<SweepOutcome> outcomes(points.size());
  if (points.empty()) return outcomes;
  if (threads == 0) threads = default_thread_count();

  // Element-wise chunking: each pool range runs its points in request order,
  // writing into the outcome slot for that index.  Counter/histogram traffic
  // from concurrent engines merges commutatively in the registry.
  parallel_for_chunked(0, points.size(), std::min(threads, points.size()),
                       [&](std::size_t lo, std::size_t hi, std::size_t /*tid*/) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           const SweepPoint& p = points[i];
                           // Each point gets its own TimeSeries (no sharing
                           // across pool threads), so telemetry stays bitwise
                           // deterministic for any pool size.  The series is
                           // installed in the outcome only when the engine
                           // actually filled it, so the outcome is exactly
                           // what a checkpoint replay would restore.
                           obs::TimeSeries ts(std::max<u64>(p.telemetry_budget, 2));
                           obs::TimeSeries* ts_ptr =
                               p.telemetry_budget > 0 ? &ts : nullptr;
                           obs::FlightRecorder flight = make_flight_recorder(p);
                           obs::FlightRecorder* flight_ptr =
                               flight.enabled() ? &flight : nullptr;
                           outcomes[i] = run_sweep_point(p, nullptr, ts_ptr, flight_ptr);
                           if (!ts.empty()) outcomes[i].timeseries = std::move(ts);
                           if (!flight.empty()) outcomes[i].flight = std::move(flight);
                         }
                       });

  reset_sweep_gauges(points, outcomes);
  return outcomes;
}

void reset_sweep_gauges(std::span<const SweepPoint> points,
                        std::span<const SweepOutcome> outcomes,
                        const std::vector<std::uint8_t>* completed) {
  BFLY_REQUIRE(points.size() == outcomes.size(),
               "reset_sweep_gauges: points/outcomes size mismatch");
  // The engines' gauges are last-write-wins, which a parallel phase would
  // leave to the scheduler.  Re-set them from the last completed pristine /
  // faulty point in request order so the registry ends exactly as a serial
  // point-by-point run over the completed set would leave it.
  const auto is_completed = [&](std::size_t i) {
    return completed == nullptr || (*completed)[i] != 0;
  };
  for (std::size_t i = points.size(); i-- > 0;) {
    if (!sweep_point_is_faulty(points[i]) && is_completed(i)) {
      obs::set(obs::get_gauge("routing.max_queue"),
               static_cast<double>(outcomes[i].point.max_queue));
      obs::set(obs::get_gauge("routing.throughput"), outcomes[i].point.throughput);
      break;
    }
  }
  for (std::size_t i = points.size(); i-- > 0;) {
    if (sweep_point_is_faulty(points[i]) && is_completed(i)) {
      obs::set(obs::get_gauge("fault.max_queue"),
               static_cast<double>(outcomes[i].point.max_queue));
      obs::set(obs::get_gauge("fault.throughput"), outcomes[i].point.throughput);
      break;
    }
  }
}

}  // namespace bfly
