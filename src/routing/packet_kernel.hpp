// The one packet kernel behind every saturation engine and census.
//
// simulate_saturation (pristine, serial), simulate_saturation_faulty (static
// FaultSet or live FaultSchedule, serial) and simulate_saturation_sharded
// (row-block shards on the thread pool) are thin wrappers: each validates its
// arguments, runs run_packet_kernel and exports its own routing.*, fault.* or
// sharded.* metrics.  measure_link_loads and measure_link_loads_faulty share
// census_link_loads the same way.
//
// Two template axes:
//   * Liveness — AllAlive (the pristine fabric: every test folds to a
//     constant and the deflection, wrap and endpoint branches compile out),
//     const FaultSet, or LiveFaultState (a schedule is attached: the kernel
//     advances it at every cycle boundary).  FaultSet and LiveFaultState are
//     only named where bfly_fault instantiates the kernel.
//   * kSharded — false runs one shard over the whole fabric with no
//     hand-off rings, no drain phase and no per-hop "leaves the shard" test;
//     that is the serial engines.  true runs shard_count row blocks in two
//     fork-join phases per cycle (sharded_sim.hpp describes the geometry);
//     that is simulate_saturation_sharded.  Both give the same bits.
//
// A run is a pure function of (n, offered_load, cycles, seed, liveness):
// shard_count and threads set only its speed.  Three rules make it so.
//   * Row r's injection test and destination at cycle c are CounterRng(seed)
//     draws at (c, r), whichever shard owns r.
//   * At every node, same-cycle arrivals enqueue in ascending upstream-link
//     id, then the wraps, then the injection.  The serial sweep meets this
//     by walking links in id order.  The sharded phases meet it by parking
//     hops until phase B (see phase_a and phase_b).
//   * The merged sums are integers, so the merge order cannot change them.
//
// The arena stores a packet's injection cycle as a u32, so the kernel
// requires cycles < 2^32 before it allocates anything.
//
// Every run keeps a whole-run conservation ledger per shard and
// BFLY_CHECKs offered == delivered + dropped + in_flight before returning.
// Probes (telemetry, occupancy frames, flight traces, latency and depth
// histograms) and live schedules run at kSharded == false only.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "routing/packet_arena.hpp"
#include "routing/routing.hpp"
#include "routing/sharded_sim.hpp"
#include "routing/telemetry_probe.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/spsc_ring.hpp"

namespace bfly::detail {

/// Seed mix of the censuses' fixed-chunk streams: chunk i draws from
/// Xoshiro256(seed ^ kStreamSeedMix * (i + 1)).
inline constexpr u64 kStreamSeedMix = 0x9e3779b97f4a7c15ULL;

/// Liveness of the pristine fabric.
struct AllAlive {
  bool link_alive(u64 /*row*/, int /*stage*/, bool /*cross*/) const { return true; }
  bool link_alive_index(u64 /*link*/) const { return true; }
  bool node_alive(u64 /*row*/, int /*stage*/) const { return true; }
  u64 num_dead_links() const { return 0; }
};

/// True for the pristine fabric, where bit-fixing alone always reaches the
/// destination row at stage n (no packet deflects, wraps or dies).
template <typename Liveness>
inline constexpr bool kAllAlive = std::is_same_v<std::remove_const_t<Liveness>, AllAlive>;

/// Dense forward-link index (routing's link_index() without a Butterfly).
inline u64 dense_link(u64 rows, u64 row, int stage, bool cross) {
  return (static_cast<u64>(stage) * rows + row) * 2 + (cross ? 1 : 0);
}

/// The single-packet walk of the deflection policy, shared by route_packet()
/// and both censuses.  on_link is called with the dense index of every
/// traversed link.
template <typename Liveness, typename OnLink>
RouteResult route_one(int n, u64 rows, const Liveness& faults, const FaultRoutingOptions& options,
                      u64 src, u64 dst, OnLink&& on_link) {
  RouteResult res;
  if (!faults.node_alive(src, 0) || !faults.node_alive(dst, n)) {
    res.reason = DropReason::kEndpointDead;
    return res;
  }
  u64 row = src;
  int stage = 0;
  for (;;) {
    if (stage == n) {
      if (kAllAlive<Liveness> || row == dst) {
        res.delivered = true;
        return res;
      }
      if (res.wraps >= options.wrap_budget) {
        res.reason = DropReason::kBudgetExhausted;
        return res;
      }
      if (!faults.node_alive(row, 0)) {
        res.reason = DropReason::kNoAliveLink;
        return res;
      }
      ++res.wraps;
      stage = 0;
      continue;
    }
    const bool want = ((row ^ dst) >> stage) & 1;
    bool cross = want;
    if (!faults.link_alive_index(dense_link(rows, row, stage, want))) {
      if (!faults.link_alive_index(dense_link(rows, row, stage, !want))) {
        res.reason = DropReason::kNoAliveLink;
        return res;
      }
      if (res.misroutes >= options.misroute_budget) {
        res.reason = DropReason::kBudgetExhausted;
        return res;
      }
      ++res.misroutes;
      cross = !want;
    }
    on_link(dense_link(rows, row, stage, cross));
    ++res.hops;
    if (cross) row ^= pow2(stage);
    ++stage;
  }
}

inline void add_tally(FaultTally& into, const FaultTally& t) {
  into.delivered += t.delivered;
  for (std::size_t r = 0; r < kNumDropReasons; ++r) into.dropped[r] += t.dropped[r];
  into.misroutes += t.misroutes;
  into.wraps += t.wraps;
}

/// Span and counter names of one census entry point.
struct CensusNames {
  const char* worker_span;
  const char* merge_span;
  const char* packets_counter;
};

/// Monte-Carlo link-load census: `packets` uniform random (src, dst) pairs
/// routed by route_one.  Packets are generated in fixed-size chunks, each
/// with its own generator seeded by (seed, chunk index); threads claim
/// contiguous chunk ranges, and the per-link sums and per-range max/total
/// partials merge in range order (u64 arithmetic), so the census and
/// `*tally` are bitwise identical for every thread count.  A non-null
/// `cancel` is polled once per chunk; a tripped census is partial.
template <typename Liveness>
LoadCensus census_link_loads(int n, u64 packets, u64 seed, const Liveness& faults,
                             const FaultRoutingOptions& options, std::size_t threads,
                             bool keep_link_loads, const CancelToken* cancel,
                             const CensusNames& names, FaultTally* tally) {
  const u64 rows = pow2(n);
  const u64 links = static_cast<u64>(n) * rows * 2;
  if (threads == 0) threads = default_thread_count();
  obs::Counter* packet_counter = obs::get_counter(names.packets_counter);

  constexpr u64 kChunkPackets = u64{1} << 16;
  const u64 num_chunks = (packets + kChunkPackets - 1) / kChunkPackets;
  threads = std::min<std::size_t>(threads, std::max<u64>(num_chunks, 1));

  std::vector<std::vector<u64>> partial(threads, std::vector<u64>(links, 0));
  std::vector<FaultTally> partial_tally(threads);
  parallel_for_chunked(
      0, num_chunks, threads, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        BFLY_TRACE_SCOPE(names.worker_span);
        std::vector<u64>& loads = partial[tid];
        FaultTally t;  // a local, so the link-load stores cannot alias it
        u64 routed = 0;
        for (std::size_t chunk = lo; chunk < hi; ++chunk) {
          if (CancelToken::cancelled(cancel)) break;
          Xoshiro256 rng(seed ^ (kStreamSeedMix * (chunk + 1)));
          const u64 begin = static_cast<u64>(chunk) * kChunkPackets;
          const u64 end = std::min(packets, begin + kChunkPackets);
          for (u64 p = begin; p < end; ++p) {
            const u64 src = rng.below(rows);
            const u64 dst = rng.below(rows);
            const RouteResult res = route_one(n, rows, faults, options, src, dst,
                                              [&](u64 link) { ++loads[link]; });
            if (res.delivered) {
              ++t.delivered;
            } else {
              ++t.dropped[drop_index(res.reason)];
            }
            t.misroutes += static_cast<u64>(res.misroutes);
            t.wraps += static_cast<u64>(res.wraps);
          }
          routed += end - begin;
        }
        partial_tally[tid] = t;
        obs::add(packet_counter, routed);
      },
      cancel);

  LoadCensus census;
  census.packets = packets;
  if (keep_link_loads) census.link_loads.resize(links, 0);
  u64 total = 0;
  {
    BFLY_TRACE_SCOPE(names.merge_span);
    std::vector<u64> range_max(threads, 0);
    std::vector<u64> range_total(threads, 0);
    parallel_for_chunked(
        0, static_cast<std::size_t>(links), threads,
        [&](std::size_t lo, std::size_t hi, std::size_t tid) {
          u64 max_load = 0;
          u64 range_sum = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            u64 load = 0;
            for (std::size_t t = 0; t < threads; ++t) load += partial[t][i];
            if (keep_link_loads) census.link_loads[i] = load;
            max_load = std::max(max_load, load);
            range_sum += load;
          }
          range_max[tid] = max_load;
          range_total[tid] = range_sum;
        });
    for (std::size_t t = 0; t < threads; ++t) {
      census.max_link_load = std::max(census.max_link_load, range_max[t]);
      total += range_total[t];
    }
    for (const FaultTally& t : partial_tally) add_tally(*tally, t);
  }
  census.avg_link_load = static_cast<double>(total) / static_cast<double>(links);
  census.imbalance = census.avg_link_load > 0
                         ? static_cast<double>(census.max_link_load) / census.avg_link_load
                         : 0.0;
  census.avg_distance =
      packets > 0 ? static_cast<double>(total) / static_cast<double>(packets) : 0.0;
  return census;
}

/// Sinks that watch a serial run; sharded runs ignore them.
struct KernelProbes {
  obs::TimeSeries* timeseries = nullptr;
  obs::OccupancyFrames* frames = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::Histogram* latency = nullptr;  ///< per-delivery latency in cycles
  obs::Histogram* depth = nullptr;    ///< in-flight packets at each cycle's end
};

/// A kernel run: the sharded engine's result shape (whose ledger every
/// engine checks) plus the post-warmup injection count the wrappers export.
struct KernelRun {
  ShardedSaturationPoint out;
  u64 measured_injections = 0;
};

/// Runs one saturation simulation.  With kSharded, `options.shard_count`
/// must be resolved (a power of two, at most 2^n) and `options.threads` caps
/// the workers of the two phases; otherwise both are ignored.
/// `kill_in_flight` is the live schedule's LinkDeathPolicy (ignored for
/// static liveness).
template <bool kSharded, typename Liveness>
KernelRun run_packet_kernel(int n, double offered_load, u64 cycles, u64 seed,
                            const ShardedOptions& options, Liveness& faults,
                            const CancelToken* cancel, const KernelProbes& probes = {},
                            bool kill_in_flight = false) {
  using Packet = PacketArena::Packet;
  constexpr bool kScheduled = requires(Liveness& l, std::vector<u64>* dead) {
    l.advance_to(u64{0}, dead);
  };
  static_assert(!(kSharded && kScheduled), "live schedules run on one shard only");
  BFLY_REQUIRE(cycles < (u64{1} << 32), "cycles must be below 2^32");

  const u64 rows = pow2(n);
  const u64 num_shards = kSharded ? options.shard_count : 1;
  const u64 block = rows / num_shards;  // rows per shard
  const int log2block = n - ilog2(num_shards);
  const int num_cross = ilog2(num_shards);  // stages whose cross links leave a shard
  const u64 local_links = static_cast<u64>(n) * block * 2;
  const u64 warmup_cycles = options.warmup_cycles;
  const u64 queue_capacity = options.queue_capacity;
  const u32 misroute_budget = static_cast<u32>(std::max(options.routing.misroute_budget, 0));
  const u32 wrap_budget = static_cast<u32>(std::max(options.routing.wrap_budget, 0));
  const u64 inject_threshold = uniform_threshold(offered_load);
  const CounterRng draws(seed);
  // Worker cap for the sharded phases (default_thread_count() is a syscall,
  // so the serial kernel never asks).
  const std::size_t threads =
      !kSharded ? 1
                : std::min<std::size_t>(
                      options.threads != 0 ? options.threads : default_thread_count(),
                      static_cast<std::size_t>(num_shards));

  obs::LocalHistogram latency_hist(probes.latency);
  obs::LocalHistogram depth_hist(probes.depth);
  FlightProbe fprobe(probes.flight);
  SaturationProbe probe(probes.timeseries, probes.frames, n, rows);

  /// Per-shard statistics: post-warmup (the tally, latency and measured
  /// injections) and the whole-run conservation ledger (every cycle).
  struct Ledger {
    FaultTally tally;
    u64 latency_sum = 0;
    u64 measured_injections = 0;
    u64 offered = 0;
    u64 injected = 0;
    u64 delivered = 0;
    u64 dropped = 0;
    u64 in_flight = 0;  ///< packets queued in this shard's arena
  };
  /// One packet that phase A takes off its queue and phase B enqueues:
  /// everything needed to re-materialize it at (row, stage + 1).
  struct Hop {
    u64 row = 0;  ///< arrival row (global)
    u64 dst = 0;
    u64 injected_at = 0;
    u32 misroutes = 0;
    u32 wraps = 0;
  };
  /// A private arena over the shard's local link range.  Shard k owns rows
  /// [k * block, (k + 1) * block).
  struct Shard {
    Shard(u64 links, bool with_budgets, bool with_flight, int num_cross, std::size_t slots)
        : arena(links, with_budgets, with_flight, slots),
          parked(static_cast<std::size_t>(num_cross)) {}
    PacketArena arena;
    std::vector<std::pair<u64, Packet>> wrapped;  ///< (row, packet) awaiting re-entry
    /// Straight hops held for phase B, per crossing stage, in row order.
    std::vector<std::vector<Hop>> parked;
    Ledger ledger;
  };
  std::vector<Shard> shards;
  shards.reserve(num_shards);
  // The arena's default 4096 initial slots, split over the shards: at 4096
  // shards, whole arenas would preallocate a quarter GB.
  const std::size_t initial_slots = std::max<std::size_t>(4096 / num_shards, 64);
  for (u64 k = 0; k < num_shards; ++k) {
    shards.emplace_back(local_links, !kAllAlive<Liveness>, fprobe.enabled(), num_cross,
                        initial_slots);
  }

  // One SPSC ring per (source shard, crossing stage), filled in row order.
  // A shard has `block` cross links per stage and each forwards at most its
  // front packet per cycle, so `block` slots never overflow; phase B empties
  // every ring before the next phase A refills it.
  std::vector<std::unique_ptr<util::SpscRing<Hop>>> rings;  // the atomics pin each ring
  if constexpr (kSharded) {
    for (u64 k = 0; k < num_shards * static_cast<u64>(num_cross); ++k) {
      rings.push_back(std::make_unique<util::SpscRing<Hop>>(static_cast<std::size_t>(block)));
    }
  }
  const auto ring_of = [&](u64 src_shard, int stage) -> util::SpscRing<Hop>& {
    return *rings[src_shard * static_cast<u64>(num_cross) + static_cast<u64>(stage - log2block)];
  };

  u64 cycle = 0;
  bool measured = false;

  // Counts one drop: the whole-run ledger always, the tally only inside the
  // measurement window.  The telemetry drop channel is cumulative over all
  // cycles, so warmup drops stay visible in the series.
  const auto count_drop = [&](Ledger& led, DropReason reason, u64 flight) BFLY_ALWAYS_INLINE {
    ++led.dropped;
    if (measured) ++led.tally.dropped[drop_index(reason)];
    if constexpr (!kSharded) {
      probe.on_dropped();
      fprobe.on_dropped(flight, cycle, static_cast<u64>(drop_index(reason)));
    }
  };

  // Picks the stage-`stage` output link for a packet at global `row` (owned
  // by the shard at row0) and enqueues it there, charging a misroute when
  // the packet must deflect.  Returns false (after counting the drop) when
  // the packet dies here instead.  `entry` is the flight event for how the
  // packet reached this node; a deflection overrides it with kMisroute.
  const auto enqueue = [&](Shard& sh, Ledger& led, u64 row0, u64 row, int stage, Packet pkt,
                           obs::FlightEvent entry) BFLY_ALWAYS_INLINE -> bool {
    const bool want = ((row ^ pkt.dst) >> stage) & 1;
    bool cross = want;
    if (!faults.link_alive(row, stage, want)) {
      if (!faults.link_alive(row, stage, !want)) {
        count_drop(led, DropReason::kNoAliveLink, pkt.flight);
        return false;
      }
      if (pkt.misroutes >= misroute_budget) {
        count_drop(led, DropReason::kBudgetExhausted, pkt.flight);
        return false;
      }
      ++pkt.misroutes;
      if (measured) ++led.tally.misroutes;
      cross = !want;
      entry = obs::FlightEvent::kMisroute;
    }
    const u64 link = dense_link(block, row - row0, stage, cross);
    if (queue_capacity > 0 && sh.arena.size(link) >= queue_capacity) {
      count_drop(led, DropReason::kQueueFull, pkt.flight);
      return false;
    }
    if constexpr (!kSharded) fprobe.on_push(pkt.flight, cycle, link, entry);
    sh.arena.push(link, pkt);
    return true;
  };

  // The terminal decision for a packet reaching stage n at `row`, already
  // off its queue but still counted in flight: delivered, dropped, or (the
  // return value) due to re-enter at (row, 0) with one more wrap charged.
  const auto arrive = [&](Ledger& led, u64 row, Packet& pkt) BFLY_ALWAYS_INLINE -> bool {
    if (kAllAlive<Liveness> || row == pkt.dst) {
      --led.in_flight;
      ++led.delivered;
      if (measured) {
        ++led.tally.delivered;
        const u64 latency = cycle + 1 - pkt.injected_at;
        led.latency_sum += latency;
        if constexpr (!kSharded) latency_hist.observe(static_cast<double>(latency));
      }
      if constexpr (!kSharded) {
        probe.on_delivered(cycle, pkt.injected_at);
        fprobe.on_delivered(pkt.flight, cycle);
      }
      return false;
    }
    if (pkt.wraps < wrap_budget && faults.node_alive(row, 0)) {
      ++pkt.wraps;
      if (measured) ++led.tally.wraps;
      return true;
    }
    --led.in_flight;
    count_drop(led,
               pkt.wraps < wrap_budget ? DropReason::kNoAliveLink : DropReason::kBudgetExhausted,
               pkt.flight);
    return false;
  };

  // Phase A: advance every stage of one shard (descending, so a packet moves
  // at most one hop per cycle), then re-enter the sweep's wraps at stage 0.
  // At a stage s >= log2block, shard k pushes its cross hops into the ring
  // read by the partner shard k ^ 2^(s - log2block).  If row bit s is set in
  // k's rows, the cross arrival from row ^ 2^s has the lower upstream link
  // id, so k also parks its straight hops there for phase B.  `led` is a
  // local of the caller (the serial loop keeps it for the whole run, a
  // sharded phase for one shard-cycle), never the Shard's field, so it stays
  // in registers through the sweep.
  //
  // The cycle-body lambdas are forced inline: left out of line, a closure
  // escapes, and every captured scalar and ledger field then lives in
  // memory, reloaded after each arena store.
  const auto phase_a = [&](Shard& sh, Ledger& led, u64 k) BFLY_ALWAYS_INLINE {
    PacketArena& arena = sh.arena;
    const u64 row0 = k * block;
    sh.wrapped.clear();
    for (int s = n - 1; s >= 0; --s) {
      // For a fixed stage the dense link ids are contiguous, so the
      // occupancy bitmap walks non-empty links in (row, cross) order.
      const u64 stage_base = static_cast<u64>(s) * block * 2;
      arena.for_each_occupied(stage_base, stage_base + block * 2, [&](u64 link) {
        const u64 row = row0 + ((link - stage_base) >> 1);
        const bool cross = (link & 1) != 0;
        const u64 next_row = cross ? (row ^ pow2(s)) : row;
        if constexpr (kSharded) {
          if (s >= log2block && (cross || ((row >> s) & 1) != 0)) {
            const Packet pkt = arena.pop(link);
            --led.in_flight;
            const Hop hop{next_row, pkt.dst, pkt.injected_at, pkt.misroutes, pkt.wraps};
            if (cross) {
              const bool pushed = ring_of(k, s).try_push(hop);
              BFLY_CHECK(pushed, "sharded hand-off ring overflow");
            } else {
              sh.parked[static_cast<std::size_t>(s - log2block)].push_back(hop);
            }
            return;
          }
        }
        if (s + 1 < n) {
          // A hop onto the alive wanted link leaves the payload unchanged:
          // relink the slot instead of popping and re-pushing.  Deflections
          // take the full enqueue path below.
          const u64 dst = arena.front_dst(link);
          const bool want = ((next_row ^ dst) >> (s + 1)) & 1;
          if (faults.link_alive(next_row, s + 1, want)) {
            const u64 next_link = dense_link(block, next_row - row0, s + 1, want);
            if (queue_capacity > 0 && arena.size(next_link) >= queue_capacity) {
              const Packet dead = arena.pop(link);
              --led.in_flight;
              count_drop(led, DropReason::kQueueFull, dead.flight);
            } else {
              if constexpr (!kSharded) fprobe.on_advance(arena, link, cycle, next_link);
              arena.move_front(link, next_link);
            }
            return;
          }
        }
        Packet pkt = arena.pop(link);
        if (s + 1 == n) {
          if (arrive(led, next_row, pkt)) sh.wrapped.emplace_back(next_row, pkt);
        } else if (!enqueue(sh, led, row0, next_row, s + 1, pkt, obs::FlightEvent::kAdvance)) {
          --led.in_flight;
        }
      });
    }
    for (const auto& [row, pkt] : sh.wrapped) {
      if (!enqueue(sh, led, row0, row, 0, pkt, obs::FlightEvent::kWrap)) --led.in_flight;
    }
  };

  // The cycle's last step at every row: the injection test and destination
  // are the (cycle, row) draws.  Returns the cycle's injections.
  const auto inject = [&](Shard& sh, Ledger& led, u64 k) BFLY_ALWAYS_INLINE -> u64 {
    const u64 row0 = k * block;
    u64 cycle_injections = 0;
    for (u64 row = row0; row < row0 + block; ++row) {
      if (!draws.uniform_below(cycle, row, inject_threshold)) continue;
      ++led.offered;
      Packet pkt{draws.below_pow2(cycle, row, rows), cycle, 0, 0, 0};
      // Sampled before the endpoint check, so the packet-id stream is the
      // same for every liveness.
      if constexpr (!kSharded) pkt.flight = fprobe.on_packet(cycle, row, pkt.dst);
      if (!faults.node_alive(row, 0) || !faults.node_alive(pkt.dst, n)) {
        count_drop(led, DropReason::kEndpointDead, pkt.flight);
        continue;
      }
      if (enqueue(sh, led, row0, row, 0, pkt, obs::FlightEvent::kInject)) {
        ++cycle_injections;
        if (measured) ++led.measured_injections;
      }
    }
    led.injected += cycle_injections;
    led.in_flight += cycle_injections;
    return cycle_injections;
  };

  // Phase B (sharded only): for each crossing stage in ascending order, drain
  // the partner's ring merged with shard k's parked hops by row, the cross
  // hop first at a shared row, then inject.  Every producer finished in
  // phase A, so the drain sees the cycle's complete hand-offs.  A hop counts
  // in flight until it is enqueued at stage s + 1 or meets its terminal
  // decision; a wrap decided here re-enters at once.
  const auto phase_b = [&](Shard& sh, u64 k) {
    const u64 row0 = k * block;
    Ledger led = sh.ledger;
    const auto take = [&](const Hop& hop, int s) BFLY_ALWAYS_INLINE {
      Packet pkt{hop.dst, hop.injected_at, hop.misroutes, hop.wraps, 0};
      ++led.in_flight;
      if (s + 1 == n && !arrive(led, hop.row, pkt)) return;
      const int stage = s + 1 == n ? 0 : s + 1;  // a wrap re-enters at stage 0
      if (!enqueue(sh, led, row0, hop.row, stage, pkt, obs::FlightEvent::kAdvance)) {
        --led.in_flight;
      }
    };
    for (int s = log2block; s < n; ++s) {
      util::SpscRing<Hop>& ring = ring_of(k ^ (u64{1} << (s - log2block)), s);
      std::vector<Hop>& parked = sh.parked[static_cast<std::size_t>(s - log2block)];
      Hop hop;
      bool have = ring.try_pop(&hop);
      for (const Hop& held : parked) {
        for (; have && hop.row <= held.row; have = ring.try_pop(&hop)) take(hop, s);
        take(held, s);
      }
      for (; have; have = ring.try_pop(&hop)) take(hop, s);
      parked.clear();
    }
    inject(sh, led, k);
    sh.ledger = led;
  };

  // Cancellation is polled only at the cycle boundary, so a cancelled run
  // stops with every shard at the same cycle and the ledger exact.
  std::vector<u64> newly_dead;  // links a live schedule killed this cycle
  Ledger serial_ledger;         // the serial shard's ledger (see phase A)
  u64 simulated = cycles;
  for (cycle = 0; cycle < cycles; ++cycle) {
    if (cycle % kCancelPollCycles == 0 && CancelToken::cancelled(cancel)) {
      simulated = cycle;
      break;
    }
    measured = cycle >= warmup_cycles;
    if constexpr (kSharded) {
      // Two fork-join phases per cycle; shards are claimed in contiguous
      // ranges, so every thread count walks the same per-shard work.
      const auto each_shard = [&](const auto& phase) {
        parallel_for_chunked(0, static_cast<std::size_t>(num_shards), threads,
                             [&](std::size_t lo, std::size_t hi, std::size_t /*tid*/) {
                               for (std::size_t k = lo; k < hi; ++k) phase(shards[k], k);
                             });
      };
      each_shard([&](Shard& sh, u64 k) {
        Ledger led = sh.ledger;
        phase_a(sh, led, k);
        sh.ledger = led;
      });
      each_shard(phase_b);
    } else {
      Shard& sh = shards[0];
      if constexpr (kScheduled) {
        // This cycle's fail/repair events (and due spare-chip failovers)
        // apply before anything routes.  Under kill-in-flight the dying
        // links' queues drain as kKilledByFault; otherwise the packets stay
        // queued and deflect at their next hop.
        faults.advance_to(cycle, kill_in_flight ? &newly_dead : nullptr);
        if (kill_in_flight) {
          for (const u64 link : newly_dead) {
            while (sh.arena.size(link) > 0) {
              const Packet dead = sh.arena.pop(link);
              --serial_ledger.in_flight;
              count_drop(serial_ledger, DropReason::kKilledByFault, dead.flight);
            }
          }
        }
      }
      phase_a(sh, serial_ledger, 0);
      const u64 cycle_injections = inject(sh, serial_ledger, 0);
      depth_hist.observe(static_cast<double>(serial_ledger.in_flight));
      probe.on_injected(cycle_injections);
      probe.sample(cycle, sh.arena, serial_ledger.in_flight, faults.num_dead_links());
    }
  }
  if constexpr (!kSharded) shards[0].ledger = serial_ledger;
  latency_hist.flush();
  depth_hist.flush();

  // Merge in shard order; every sum is an integer.
  KernelRun run;
  ShardedSaturationPoint& out = run.out;
  SaturationPoint& result = out.point;
  out.shard_count = num_shards;
  result.offered_load = offered_load;
  u64 total_latency = 0;
  for (const Shard& sh : shards) {
    const Ledger& led = sh.ledger;
    add_tally(out.tally, led.tally);
    total_latency += led.latency_sum;
    run.measured_injections += led.measured_injections;
    result.max_queue = std::max(result.max_queue, sh.arena.max_size());
    out.offered_total += led.offered;
    out.injected_total += led.injected;
    out.delivered_total += led.delivered;
    out.dropped_total += led.dropped;
    out.in_flight_end += led.in_flight;
  }
  BFLY_CHECK(out.conserved(), "packet kernel conservation violation");

  result.delivered = out.tally.delivered;
  result.dropped_queue_full = out.tally.dropped[drop_index(DropReason::kQueueFull)];
  // Rates average over the cycles actually simulated, so a cancelled run
  // still reports meaningful (if noisier) numbers; all-zero when the token
  // tripped before the first measured cycle.
  const double measured_cycles =
      simulated > warmup_cycles ? static_cast<double>(simulated - warmup_cycles) : 0.0;
  result.throughput =
      measured_cycles > 0.0
          ? static_cast<double>(result.delivered) / (measured_cycles * static_cast<double>(rows))
          : 0.0;
  result.per_node_injection = result.throughput / static_cast<double>(n + 1);
  result.avg_latency =
      result.delivered > 0
          ? static_cast<double>(total_latency) / static_cast<double>(result.delivered)
          : 0.0;
  return run;
}

}  // namespace bfly::detail
