#include "routing/routing.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/packet_kernel.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bfly {

i64 butterfly_distance(int n, u64 r1, int s1, u64 r2, int s2) {
  BFLY_REQUIRE(n >= 1 && s1 >= 0 && s1 <= n && s2 >= 0 && s2 <= n, "bad node coordinates");
  // Bit b is fixed by traversing transition b (between stages b and b+1);
  // only the low n bits name transitions, so mask before scanning.
  const u64 diff = extract_bits(r1 ^ r2, 0, n);
  if (diff == 0) return std::abs(s1 - s2);
  const int lo_bit = lowest_set_bit(diff);
  const int hi_bit = highest_set_bit(diff);
  // The walk must cover the stage interval [lo_bit, hi_bit + 1]; the cheapest
  // sweep goes to one end first, then across, then to s2.
  const i64 a = std::min<i64>(lo_bit, std::min(s1, s2));
  const i64 b = std::max<i64>(hi_bit + 1, std::max(s1, s2));
  const i64 left_first = (s1 - a) + (b - a) + (b - s2);
  const i64 right_first = (b - s1) + (b - a) + (s2 - a);
  return std::min(left_first, right_first);
}

LoadCensus measure_link_loads(int n, u64 packets, u64 seed, std::size_t threads,
                              bool keep_link_loads, const CancelToken* cancel) {
  // n bounds the link-index space (n * 2^n * 2 dense ids): reject out-of-range
  // dimensions here instead of letting the shifts below overflow silently.
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_TRACE_SCOPE("routing.measure_link_loads");
  FaultTally tally;
  const LoadCensus census = detail::census_link_loads(
      n, packets, seed, detail::AllAlive{}, FaultRoutingOptions{}, threads, keep_link_loads,
      cancel, {"routing.census.worker", "routing.census.merge", "routing.census.packets"},
      &tally);
  obs::set(obs::get_gauge("routing.census.max_link_load"),
           static_cast<double>(census.max_link_load));
  obs::set(obs::get_gauge("routing.census.avg_link_load"), census.avg_link_load);
  obs::set(obs::get_gauge("routing.census.imbalance"), census.imbalance);
  return census;
}

double average_node_distance(int n, u64 samples, u64 seed, std::size_t threads) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(samples >= 1, "need at least one sample");
  BFLY_TRACE_SCOPE("routing.average_node_distance");
  const u64 rows = pow2(n);
  if (threads == 0) threads = default_thread_count();

  // Same fixed-chunk seeding scheme as measure_link_loads: the sample stream
  // is a function of (seed, chunk index) alone and the i64 chunk totals are
  // merged in chunk-range order, so the average is bitwise identical for any
  // thread count.
  constexpr u64 kChunkSamples = u64{1} << 16;
  const u64 num_chunks = (samples + kChunkSamples - 1) / kChunkSamples;
  threads = std::min<std::size_t>(threads, std::max<u64>(num_chunks, 1));

  std::vector<i64> partial(threads, 0);
  parallel_for_chunked(
      0, num_chunks, threads, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        i64 total = 0;
        for (std::size_t chunk = lo; chunk < hi; ++chunk) {
          Xoshiro256 rng(seed ^ (detail::kStreamSeedMix * (chunk + 1)));
          const u64 begin = static_cast<u64>(chunk) * kChunkSamples;
          const u64 end = std::min(samples, begin + kChunkSamples);
          for (u64 i = begin; i < end; ++i) {
            const u64 r1 = rng.below(rows);
            const u64 r2 = rng.below(rows);
            const int s1 = static_cast<int>(rng.below(static_cast<u64>(n) + 1));
            const int s2 = static_cast<int>(rng.below(static_cast<u64>(n) + 1));
            total += butterfly_distance(n, r1, s1, r2, s2);
          }
        }
        partial[tid] = total;
      });
  i64 total = 0;
  for (const i64 t : partial) total += t;
  return static_cast<double>(total) / static_cast<double>(samples);
}

u64 permutation_congestion(int n, std::span<const u64> perm) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  const Butterfly bf(n);
  const u64 rows = bf.rows();
  BFLY_REQUIRE(perm.size() == rows, "permutation must cover all rows");
  std::vector<u64> load(static_cast<std::size_t>(n) * rows * 2, 0);
  u64 worst = 0;
  for (u64 src = 0; src < rows; ++src) {
    u64 row = src;
    const u64 dst = perm[src];
    BFLY_REQUIRE(dst < rows, "permutation target out of range");
    for (int s = 0; s < n; ++s) {
      const bool cross = ((row ^ dst) >> s) & 1;
      const u64 l = ++load[link_index(bf, row, s, cross)];
      worst = std::max(worst, l);
      if (cross) row ^= pow2(s);
    }
  }
  return worst;
}

u64 bit_reversal_congestion(int n) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  const u64 rows = pow2(n);
  std::vector<u64> perm(rows);
  for (u64 r = 0; r < rows; ++r) perm[r] = bit_reverse(r, n);
  return permutation_congestion(n, perm);
}

SaturationPoint simulate_saturation(int n, double offered_load, u64 cycles, u64 seed,
                                    u64 warmup_cycles, u64 queue_capacity,
                                    const CancelToken* cancel,
                                    obs::TimeSeries* timeseries,
                                    obs::OccupancyFrames* frames,
                                    obs::FlightRecorder* flight) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(offered_load >= 0.0 && offered_load <= 1.0, "offered load is a probability");
  BFLY_TRACE_SCOPE("routing.simulate_saturation");
  ShardedOptions options;
  options.warmup_cycles = warmup_cycles;
  options.queue_capacity = queue_capacity;
  const detail::KernelProbes probes{
      timeseries, frames, flight,
      obs::get_histogram("routing.latency_cycles", obs::Histogram::exponential_bounds(1, 2, 16)),
      obs::get_histogram("routing.queue_depth", obs::Histogram::exponential_bounds(1, 2, 24))};
  detail::AllAlive alive;
  const detail::KernelRun run = detail::run_packet_kernel<false>(
      n, offered_load, cycles, seed, options, alive, cancel, probes);
  const SaturationPoint& result = run.out.point;
  obs::add(obs::get_counter("routing.injected"), run.measured_injections);
  obs::add(obs::get_counter("routing.delivered"), result.delivered);
  if (queue_capacity > 0) {
    obs::add(obs::get_counter("routing.dropped.queue_full"), result.dropped_queue_full);
  }
  obs::set(obs::get_gauge("routing.max_queue"), static_cast<double>(result.max_queue));
  obs::set(obs::get_gauge("routing.throughput"), result.throughput);
  return result;
}

}  // namespace bfly
