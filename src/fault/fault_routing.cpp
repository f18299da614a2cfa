#include "fault/fault_routing.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/packet_kernel.hpp"
#include "routing/sharded_sim.hpp"
#include "util/parallel.hpp"

namespace bfly {

namespace {

void export_tally_metrics(const FaultTally& tally) {
  obs::add(obs::get_counter("fault.delivered"), tally.delivered);
  obs::add(obs::get_counter("fault.dropped.endpoint"),
           tally.dropped[drop_index(DropReason::kEndpointDead)]);
  obs::add(obs::get_counter("fault.dropped.no_alive_link"),
           tally.dropped[drop_index(DropReason::kNoAliveLink)]);
  obs::add(obs::get_counter("fault.dropped.budget_exhausted"),
           tally.dropped[drop_index(DropReason::kBudgetExhausted)]);
  obs::add(obs::get_counter("fault.dropped.queue_full"),
           tally.dropped[drop_index(DropReason::kQueueFull)]);
  obs::add(obs::get_counter("fault.dropped.killed_by_fault"),
           tally.dropped[drop_index(DropReason::kKilledByFault)]);
  obs::add(obs::get_counter("fault.misroutes"), tally.misroutes);
  obs::add(obs::get_counter("fault.wraps"), tally.wraps);
}

}  // namespace

RouteResult route_packet(int n, const FaultSet& faults, const FaultRoutingOptions& options,
                         u64 src, u64 dst, std::vector<u64>* path_links) {
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  const u64 rows = pow2(n);
  BFLY_REQUIRE(src < rows && dst < rows, "row out of range");
  return detail::route_one(n, rows, faults, options, src, dst, [&](u64 link) {
    if (path_links != nullptr) path_links->push_back(link);
  });
}

FaultLoadCensus measure_link_loads_faulty(int n, u64 packets, u64 seed, const FaultSet& faults,
                                          const FaultRoutingOptions& options,
                                          std::size_t threads, bool keep_link_loads) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  BFLY_TRACE_SCOPE("fault.measure_link_loads");
  // The pristine census's body and seeding: with an empty FaultSet every
  // packet takes its preferred link for exactly n hops, so the embedded
  // LoadCensus is bitwise identical to measure_link_loads().
  FaultLoadCensus out;
  out.census = detail::census_link_loads(
      n, packets, seed, faults, options, threads, keep_link_loads, /*cancel=*/nullptr,
      {"fault.census.chunk", "fault.census.merge", "fault.census.packets"}, &out.tally);
  out.delivered_fraction =
      packets > 0 ? static_cast<double>(out.tally.delivered) / static_cast<double>(packets)
                  : 0.0;
  export_tally_metrics(out.tally);
  obs::set(obs::get_gauge("fault.census.delivered_fraction"), out.delivered_fraction);
  obs::set(obs::get_gauge("fault.census.max_link_load"),
           static_cast<double>(out.census.max_link_load));
  return out;
}

FaultSaturationPoint simulate_saturation_faulty(int n, double offered_load, u64 cycles,
                                                u64 seed, const FaultSet& faults,
                                                const FaultRoutingOptions& options,
                                                u64 warmup_cycles, u64 queue_capacity,
                                                const CancelToken* cancel,
                                                obs::TimeSeries* timeseries,
                                                obs::OccupancyFrames* frames,
                                                obs::FlightRecorder* flight,
                                                const FaultSchedule* schedule) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(offered_load >= 0.0 && offered_load <= 1.0, "offered load is a probability");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  if (schedule != nullptr) {
    BFLY_REQUIRE(schedule->dimension() == n, "fault schedule dimension mismatch");
  }
  BFLY_TRACE_SCOPE("fault.simulate_saturation");
  ShardedOptions kernel_options;
  kernel_options.warmup_cycles = warmup_cycles;
  kernel_options.queue_capacity = queue_capacity;
  kernel_options.routing = options;
  const detail::KernelProbes probes{
      timeseries, frames, flight,
      obs::get_histogram("fault.latency_cycles", obs::Histogram::exponential_bounds(1, 2, 16)),
      obs::get_histogram("fault.queue_depth", obs::Histogram::exponential_bounds(1, 2, 24))};
  FaultSaturationPoint out;
  detail::KernelRun run;
  if (schedule == nullptr) {
    run = detail::run_packet_kernel<false>(n, offered_load, cycles, seed, kernel_options,
                                           faults, cancel, probes);
  } else {
    LiveFaultState live(faults, *schedule);
    run = detail::run_packet_kernel<false>(
        n, offered_load, cycles, seed, kernel_options, live, cancel, probes,
        schedule->link_death_policy() == LinkDeathPolicy::kKillInFlight);
    out.live = live.stats();
  }
  out.point = run.out.point;
  out.tally = run.out.tally;
  obs::add(obs::get_counter("fault.injected"), run.measured_injections);
  export_tally_metrics(out.tally);
  obs::set(obs::get_gauge("fault.max_queue"), static_cast<double>(out.point.max_queue));
  obs::set(obs::get_gauge("fault.throughput"), out.point.throughput);
  return out;
}

ShardedSaturationPoint simulate_saturation_sharded(int n, double offered_load, u64 cycles,
                                                   u64 seed, const ShardedOptions& options,
                                                   const FaultSet* faults,
                                                   const CancelToken* cancel) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(std::isfinite(offered_load) && offered_load >= 0.0 && offered_load <= 1.0,
               "offered load is a probability");
  const u64 rows = pow2(n);
  ShardedOptions resolved = options;
  if (resolved.shard_count == 0) resolved.shard_count = std::min<u64>(rows, 8);
  BFLY_REQUIRE(is_pow2(resolved.shard_count) && resolved.shard_count <= rows,
               "shard_count must be a power of two, at most 2^n");
  if (faults != nullptr) {
    BFLY_REQUIRE(faults->dimension() == n, "fault set dimension mismatch");
  }
  BFLY_TRACE_SCOPE("routing.simulate_saturation_sharded");
  detail::KernelRun run;
  if (faults != nullptr) {
    run = detail::run_packet_kernel<true>(n, offered_load, cycles, seed, resolved, *faults,
                                          cancel);
  } else {
    detail::AllAlive alive;
    run = detail::run_packet_kernel<true>(n, offered_load, cycles, seed, resolved, alive,
                                          cancel);
    run.out.tally = FaultTally{};  // pristine runs report no fault accounting
  }
  // Commutative counter merges only — no gauges, so concurrent sharded
  // points in one sweep leave the registry deterministic without the
  // reset-after dance the serial engines need.
  obs::add(obs::get_counter("sharded.offered"), run.out.offered_total);
  obs::add(obs::get_counter("sharded.injected"), run.measured_injections);
  obs::add(obs::get_counter("sharded.delivered"), run.out.point.delivered);
  obs::add(obs::get_counter("sharded.dropped"), run.out.dropped_total);
  return run.out;
}

std::vector<std::uint8_t> reachable_destinations(int n, const FaultSet& faults, u64 src_row) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  const u64 rows = pow2(n);
  BFLY_REQUIRE(src_row < rows, "row out of range");
  std::vector<std::uint8_t> out(rows, 0);
  if (!faults.node_alive(src_row, 0)) return out;

  const u64 states = rows * static_cast<u64>(n + 1);
  std::vector<std::uint8_t> seen(states, 0);
  std::vector<u64> queue;
  const auto push = [&](u64 row, int stage) {
    const u64 id = static_cast<u64>(stage) * rows + row;
    if (seen[id]) return;
    seen[id] = 1;
    queue.push_back(id);
  };
  push(src_row, 0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const u64 id = queue[head];
    const u64 row = id % rows;
    const int stage = static_cast<int>(id / rows);
    if (stage == n) {
      out[row] = 1;
      // Recirculation: a packet at an output can re-enter the fabric.
      if (faults.node_alive(row, 0)) push(row, 0);
      continue;
    }
    // Dead links never lead into dead nodes (node faults kill incident
    // links), so link liveness alone gates the forward expansion.
    if (faults.link_alive(row, stage, false)) push(row, stage + 1);
    if (faults.link_alive(row, stage, true)) push(row ^ pow2(stage), stage + 1);
  }
  return out;
}

double exact_reachability(int n, const FaultSet& faults) {
  BFLY_TRACE_SCOPE("fault.exact_reachability");
  const u64 rows = pow2(n);
  // Each source row's BFS is independent; pool threads claim contiguous row
  // ranges and the u64 per-range pair counts are summed in range order, so
  // the fraction is bitwise identical for any pool size.
  const std::size_t threads =
      std::min<std::size_t>(default_thread_count(), static_cast<std::size_t>(rows));
  std::vector<u64> partial(threads, 0);
  parallel_for_chunked(
      0, static_cast<std::size_t>(rows), threads,
      [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        u64 pairs = 0;
        for (std::size_t src = lo; src < hi; ++src) {
          const std::vector<std::uint8_t> reach =
              reachable_destinations(n, faults, static_cast<u64>(src));
          for (const std::uint8_t r : reach) pairs += r;
        }
        partial[tid] = pairs;
      });
  u64 reachable_pairs = 0;
  for (const u64 p : partial) reachable_pairs += p;
  const double fraction = static_cast<double>(reachable_pairs) /
                          (static_cast<double>(rows) * static_cast<double>(rows));
  obs::set(obs::get_gauge("fault.reachability"), fraction);
  return fraction;
}

}  // namespace bfly
