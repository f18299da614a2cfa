// The cycle-parallel sharded engine (routing/sharded_sim.hpp) and its
// building blocks.
//
// The load-bearing contract is the determinism one: a sharded run is a pure
// function of (n, offered_load, cycles, seed, faults) — bitwise equal to the
// serial engines for every shard count and thread count — and every offered
// packet is exactly accounted for (delivered + dropped + in flight ==
// offered) over the whole run, warmup included.  On top of that sit the
// PacketArena against a deque model
// and its index-width hardening, the kernel's cycle bound, the sweep
// integration (dispatch, serial fallback, checkpoint identity), and the
// kill/resume bit-identity of a checkpointed sharded grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/exec.hpp"
#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "routing/packet_arena.hpp"
#include "routing/packet_kernel.hpp"
#include "routing/routing.hpp"
#include "routing/sharded_sim.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

// ---------------------------------------------------------------------------
// PacketArena index-width hardening

TEST(PacketArena, RejectsLinkCountBeyondIndexWidth) {
  // Slot/link ids are u32 with kNil as the sentinel; an oversized request
  // must throw before any allocation (this would be a ~TB reserve otherwise).
  EXPECT_THROW(PacketArena(u64{1} << 33), InvalidArgument);
  EXPECT_THROW(PacketArena(static_cast<u64>(PacketArena::kNil)), InvalidArgument);
  EXPECT_NO_THROW(PacketArena(1));
  // Head cells and slots share the index space: a link count that fits on
  // its own still fails once the default 4096 initial slots are added.
  EXPECT_THROW(PacketArena(static_cast<u64>(PacketArena::kNil) - 4096), InvalidArgument);
  EXPECT_THROW(PacketArena(static_cast<u64>(PacketArena::kNil) - 1), InvalidArgument);
}

TEST(PacketArena, RejectsInitialSlotsBeyondIndexWidth) {
  EXPECT_THROW(PacketArena(4, false, false, std::size_t{1} << 33), InvalidArgument);
  EXPECT_THROW(PacketArena(4, false, false, static_cast<std::size_t>(PacketArena::kNil)),
               InvalidArgument);
  EXPECT_NO_THROW(PacketArena(4, false, false, 16));
  // Each count fits alone; together they reach kNil.
  EXPECT_THROW(PacketArena(1, false, false, static_cast<std::size_t>(PacketArena::kNil) - 1),
               InvalidArgument);
  EXPECT_THROW(PacketArena(u64{1} << 31, false, false, std::size_t{1} << 31), InvalidArgument);
  EXPECT_THROW(PacketArena(static_cast<u64>(PacketArena::kNil) / 2, true, true,
                           static_cast<std::size_t>(PacketArena::kNil) / 2 + 1),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// PacketArena against a deque-per-link model

/// Drives a PacketArena and a std::deque per link with the same random
/// push / move_front / pop stream and compares every observable after each
/// operation.  Lanes the arena lacks read back as 0 (misroutes, wraps and
/// flight), so the model stores what the arena must return.
void run_arena_model(bool with_budgets, bool with_flight, u64 seed) {
  using Packet = PacketArena::Packet;
  constexpr u64 kLinks = 150;  // three occupancy words, the last one partial
  constexpr std::size_t kInitialSlots = 8;
  PacketArena arena(kLinks, with_budgets, with_flight, kInitialSlots);
  std::vector<std::deque<Packet>> model(kLinks);
  Xoshiro256 rng(seed);
  u64 population = 0;

  const auto expect_equal_packets = [](const Packet& got, const Packet& want) {
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.injected_at, want.injected_at);
    EXPECT_EQ(got.misroutes, want.misroutes);
    EXPECT_EQ(got.wraps, want.wraps);
    EXPECT_EQ(got.flight, want.flight);
  };
  const auto random_packet = [&] {
    Packet p;
    p.dst = rng.below(u64{1} << 30);
    p.injected_at = rng() >> 32;  // the whole u32 range
    const u32 misroutes = static_cast<u32>(rng());
    const u32 wraps = static_cast<u32>(rng());
    const u64 flight = rng();
    p.misroutes = misroutes;
    p.wraps = wraps;
    p.flight = flight;
    Packet stored = p;  // what the arena reads back
    if (!with_budgets) stored.misroutes = stored.wraps = 0;
    if (!with_flight) stored.flight = 0;
    return std::pair<Packet, Packet>(p, stored);
  };
  const auto non_empty_link = [&] {
    for (;;) {
      const u64 link = rng.below(kLinks);
      if (!model[link].empty()) return link;
    }
  };
  const auto expect_link_matches = [&](u64 link) {
    const std::deque<Packet>& q = model[link];
    ASSERT_EQ(arena.size(link), q.size()) << "link " << link;
    ASSERT_EQ(arena.empty(link), q.empty()) << "link " << link;
    if (!q.empty()) {
      ASSERT_EQ(arena.front_dst(link), q.front().dst) << "link " << link;
      ASSERT_EQ(arena.front_flight(link), q.front().flight) << "link " << link;
    }
  };
  const auto expect_matches_model = [&] {
    u64 max_size = 0;
    for (u64 link = 0; link < kLinks; ++link) {
      ASSERT_NO_FATAL_FAILURE(expect_link_matches(link));
      max_size = std::max<u64>(max_size, model[link].size());
    }
    ASSERT_EQ(arena.max_size(), max_size);
  };

  // Three phases: grow the population past the initial slots, churn, drain.
  for (const int push_weight : {7, 4, 1}) {
    for (int op = 0; op < 1500; ++op) {
      const u64 pick = rng.below(10);
      if (population == 0 || pick < static_cast<u64>(push_weight)) {
        const u64 link = rng.below(kLinks);
        const auto [pushed, stored] = random_packet();
        arena.push(link, pushed);
        model[link].push_back(stored);
        ++population;
        ASSERT_NO_FATAL_FAILURE(expect_link_matches(link));
      } else if (pick < 8) {
        // Includes from == to: the front moves to the back of its own FIFO.
        const u64 from = non_empty_link();
        const u64 to = rng.below(4) == 0 ? from : rng.below(kLinks);
        arena.move_front(from, to);
        model[to].push_back(model[from].front());
        model[from].pop_front();
        ASSERT_NO_FATAL_FAILURE(expect_link_matches(from));
        ASSERT_NO_FATAL_FAILURE(expect_link_matches(to));
      } else {
        const u64 link = non_empty_link();
        expect_equal_packets(arena.pop(link), model[link].front());
        model[link].pop_front();
        --population;
        ASSERT_NO_FATAL_FAILURE(expect_link_matches(link));
      }
      if (op % 16 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_matches_model());
      }
    }
    if (push_weight == 7) {
      EXPECT_GT(arena.capacity(), kInitialSlots);  // it grew
    }

    // for_each_occupied visits exactly the non-empty links of a random
    // range in increasing order, while the visitor pops the visited link.
    for (int sweep = 0; sweep < 20; ++sweep) {
      const u64 begin = rng.below(kLinks);
      const u64 end = begin + rng.below(kLinks - begin + 1);
      std::vector<u64> expected;
      for (u64 link = begin; link < end; ++link) {
        if (!model[link].empty()) expected.push_back(link);
      }
      std::vector<u64> visited;
      arena.for_each_occupied(begin, end, [&](u64 link) {
        visited.push_back(link);
        if (rng.below(2) == 0) {
          expect_equal_packets(arena.pop(link), model[link].front());
          model[link].pop_front();
          --population;
        }
      });
      EXPECT_EQ(visited, expected);
      ASSERT_NO_FATAL_FAILURE(expect_matches_model());
    }
  }
  // Drain everything: every FIFO returns its packets in push order.
  for (u64 link = 0; link < kLinks; ++link) {
    while (!model[link].empty()) {
      expect_equal_packets(arena.pop(link), model[link].front());
      model[link].pop_front();
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches_model());
  u64 visits = 0;
  arena.for_each_occupied(0, kLinks, [&](u64) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(PacketArena, MatchesADequePerLinkModel) {
  for (const bool with_budgets : {false, true}) {
    for (const bool with_flight : {false, true}) {
      for (const u64 seed : {u64{1}, u64{2}, u64{3}}) {
        SCOPED_TRACE(::testing::Message() << "budgets=" << with_budgets
                                          << " flight=" << with_flight << " seed=" << seed);
        run_arena_model(with_budgets, with_flight, seed);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The kernel's cycle bound: injected_at is stored as a u32 cycle

TEST(PacketKernel, RejectsCyclesBeyondTheInjectionStampWidth) {
  // Every entry point refuses 2^32 cycles before it allocates or simulates.
  const u64 too_many = u64{1} << 32;
  EXPECT_THROW(simulate_saturation(4, 0.5, too_many, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation_faulty(4, 0.5, too_many, 1, FaultSet(4)), InvalidArgument);
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, too_many, 1), InvalidArgument);
  ShardedOptions one_shard;
  one_shard.shard_count = 1;
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, too_many, 1, one_shard), InvalidArgument);
  const FaultSet empty(4);
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, too_many, 1, {}, &empty), InvalidArgument);

  SweepPoint point;
  point.n = 4;
  point.offered_load = 0.5;
  point.cycles = too_many;
  try {
    validate_sweep_point(point, 3);
    ADD_FAILURE() << "2^32 cycles accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("sweep point 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("2^32"), std::string::npos) << e.what();
  }
  EXPECT_THROW(saturation_sweep(std::vector<SweepPoint>(1, point)), InvalidArgument);
  point.cycles = too_many - 1;
  EXPECT_NO_THROW(validate_sweep_point(point, 3));
}

// ---------------------------------------------------------------------------
// parse_thread_count (the --threads / $BFLY_THREADS validator)

TEST(ParseThreadCount, AcceptsOnlyPlainIntegersInRange) {
  std::size_t out = 77;
  EXPECT_TRUE(parse_thread_count("1", &out));
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(parse_thread_count("4096", &out));
  EXPECT_EQ(out, 4096u);
  out = 77;
  for (const char* bad : {"0", "4097", "", "4x", "x4", "-2", "+3", " 4", "4 ", "1e3",
                          "0x10", "999999999999999999999"}) {
    EXPECT_FALSE(parse_thread_count(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, 77u) << "rejected parse must not touch *out";
  }
  EXPECT_FALSE(parse_thread_count(nullptr, &out));
}

// ---------------------------------------------------------------------------
// Sharded engine: validation and defaults

TEST(ShardedSim, ValidatesItsParameters) {
  EXPECT_THROW(simulate_saturation_sharded(0, 0.5, 10, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation_sharded(31, 0.5, 10, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation_sharded(4, 1.5, 10, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation_sharded(4, -0.1, 10, 1), InvalidArgument);
  ShardedOptions opt;
  opt.shard_count = 3;  // not a power of two
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, 10, 1, opt), InvalidArgument);
  opt.shard_count = 32;  // > 2^4 rows
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, 10, 1, opt), InvalidArgument);
  const FaultSet wrong_dim(5);
  EXPECT_THROW(simulate_saturation_sharded(4, 0.5, 10, 1, {}, &wrong_dim), InvalidArgument);
}

TEST(ShardedSim, DefaultShardCountIsMachineIndependent) {
  // 0 picks min(2^n, 8) — a fixed constant, never the core count, so a
  // defaulted run is still a pure function of its parameters.
  EXPECT_EQ(simulate_saturation_sharded(6, 0.3, 50, 1).shard_count, 8u);
  EXPECT_EQ(simulate_saturation_sharded(2, 0.3, 50, 1).shard_count, 4u);
}

// ---------------------------------------------------------------------------
// Thread invariance: the acceptance criterion

void expect_sharded_eq(const ShardedSaturationPoint& a, const ShardedSaturationPoint& b) {
  // Bitwise equality including the doubles: the contract is bit-identity,
  // not closeness, so EXPECT_EQ throughout.
  EXPECT_EQ(a.point.offered_load, b.point.offered_load);
  EXPECT_EQ(a.point.throughput, b.point.throughput);
  EXPECT_EQ(a.point.avg_latency, b.point.avg_latency);
  EXPECT_EQ(a.point.per_node_injection, b.point.per_node_injection);
  EXPECT_EQ(a.point.delivered, b.point.delivered);
  EXPECT_EQ(a.point.max_queue, b.point.max_queue);
  EXPECT_EQ(a.point.dropped_queue_full, b.point.dropped_queue_full);
  EXPECT_EQ(a.tally.delivered, b.tally.delivered);
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    EXPECT_EQ(a.tally.dropped[r], b.tally.dropped[r]) << "drop reason " << r;
  }
  EXPECT_EQ(a.tally.misroutes, b.tally.misroutes);
  EXPECT_EQ(a.tally.wraps, b.tally.wraps);
  EXPECT_EQ(a.shard_count, b.shard_count);
  EXPECT_EQ(a.offered_total, b.offered_total);
  EXPECT_EQ(a.injected_total, b.injected_total);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.dropped_total, b.dropped_total);
  EXPECT_EQ(a.in_flight_end, b.in_flight_end);
}

void expect_thread_invariant(int n, u64 shard_count, const FaultSet* faults,
                             u64 queue_capacity, u64 cycles) {
  ShardedOptions opt;
  opt.shard_count = shard_count;
  opt.warmup_cycles = cycles / 6;
  opt.queue_capacity = queue_capacity;
  opt.routing.misroute_budget = 2;
  opt.routing.wrap_budget = 1;
  opt.threads = 1;
  const ShardedSaturationPoint reference =
      simulate_saturation_sharded(n, 0.7, cycles, 2026, opt, faults);
  EXPECT_TRUE(reference.conserved());
  EXPECT_GT(reference.point.delivered, 0u);
  // 0 = hardware concurrency — whatever this machine has; the pool helps
  // while waiting, so an oversubscribed request is fine too.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ShardedOptions o = opt;
    o.threads = threads;
    expect_sharded_eq(simulate_saturation_sharded(n, 0.7, cycles, 2026, o, faults), reference);
  }
}

TEST(ShardedSim, BitwiseInvariantAcrossThreadCountsPristineB6) {
  expect_thread_invariant(6, 8, nullptr, 0, 600);
}

TEST(ShardedSim, BitwiseInvariantAcrossThreadCountsPristineBoundedB6) {
  // Bounded queues exercise the drop paths; invariance must hold there too.
  expect_thread_invariant(6, 8, nullptr, 2, 600);
}

TEST(ShardedSim, BitwiseInvariantAcrossThreadCountsFaultyB6) {
  FaultSet faults = FaultSet::random_links(6, 0.05, 99);
  faults.fail_node(3, 2);
  expect_thread_invariant(6, 8, &faults, 8, 600);
}

TEST(ShardedSim, BitwiseInvariantAcrossThreadCountsPristineB12) {
  expect_thread_invariant(12, 8, nullptr, 0, 400);
}

TEST(ShardedSim, BitwiseInvariantAcrossThreadCountsFaultyB12) {
  const FaultSet faults = FaultSet::random_links(12, 0.02, 7);
  expect_thread_invariant(12, 8, &faults, 16, 400);
}

TEST(ShardedSim, ShardCountOneAndMaxAreValidDegenerateGeometries) {
  // S = 1: no cross stages at all (every hop shard-local); S = rows: every
  // cross stage hands off.  Both extremes must conserve and stay
  // thread-invariant.
  expect_thread_invariant(4, 1, nullptr, 0, 300);
  expect_thread_invariant(4, 16, nullptr, 0, 300);
  const FaultSet faults = FaultSet::random_links(4, 0.05, 3);
  expect_thread_invariant(4, 16, &faults, 4, 300);
}

// ---------------------------------------------------------------------------
// Conservation

TEST(ShardedSim, ConservationIsExactUnderHeavyDrops) {
  // Saturating load into capacity-1 queues: most offered packets drop.  The
  // ledger must still balance exactly, and the parts must be self-consistent.
  ShardedOptions opt;
  opt.shard_count = 8;
  opt.queue_capacity = 1;
  opt.threads = 2;
  const ShardedSaturationPoint r = simulate_saturation_sharded(6, 1.0, 500, 5, opt);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.offered_total, r.delivered_total + r.dropped_total + r.in_flight_end);
  EXPECT_GT(r.dropped_total, 0u);
  EXPECT_LE(r.injected_total, r.offered_total);
  EXPECT_GE(r.delivered_total, r.point.delivered);  // whole-run >= post-warmup
}

TEST(ShardedSim, ZeroLoadAndZeroishCyclesDegenerateCleanly) {
  ShardedOptions opt;
  opt.shard_count = 4;
  const ShardedSaturationPoint none = simulate_saturation_sharded(4, 0.0, 100, 1, opt);
  EXPECT_EQ(none.offered_total, 0u);
  EXPECT_EQ(none.point.delivered, 0u);
  EXPECT_EQ(none.point.throughput, 0.0);
  EXPECT_EQ(none.point.avg_latency, 0.0);
  EXPECT_TRUE(none.conserved());
}

// ---------------------------------------------------------------------------
// Exact equality with the serial engines at every shard count

void expect_point_bitwise_eq(const SaturationPoint& a, const SaturationPoint& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.per_node_injection, b.per_node_injection);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dropped_queue_full, b.dropped_queue_full);
}

void expect_tally_bitwise_eq(const FaultTally& a, const FaultTally& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    EXPECT_EQ(a.dropped[r], b.dropped[r]) << "drop reason " << r;
  }
  EXPECT_EQ(a.misroutes, b.misroutes);
  EXPECT_EQ(a.wraps, b.wraps);
}

TEST(ShardedSim, SerialEnginesEqualShardCountOneBitwise) {
  const u64 cycles = 300;
  u64 misroutes = 0;
  u64 wraps = 0;
  u64 queue_full = 0;
  for (const int n : {3, 6, 10}) {
    const FaultSet faults = FaultSet::random_links(n, 0.05, 40 + static_cast<u64>(n));
    for (const double load : {0.2, 0.7, 1.0}) {
      for (const u64 capacity : {u64{0}, u64{2}}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " load=" << load << " capacity=" << capacity);
        const u64 seed = 500 + static_cast<u64>(n);
        ShardedOptions opt;
        opt.shard_count = 1;
        opt.threads = 1;
        opt.warmup_cycles = 40;
        opt.queue_capacity = capacity;
        opt.routing.misroute_budget = 2;
        opt.routing.wrap_budget = 1;

        const SaturationPoint pristine =
            simulate_saturation(n, load, cycles, seed, opt.warmup_cycles, capacity);
        const ShardedSaturationPoint sharded_pristine =
            simulate_saturation_sharded(n, load, cycles, seed, opt);
        expect_point_bitwise_eq(pristine, sharded_pristine.point);
        expect_tally_bitwise_eq(FaultTally{}, sharded_pristine.tally);
        EXPECT_TRUE(sharded_pristine.conserved());

        const FaultSaturationPoint faulty = simulate_saturation_faulty(
            n, load, cycles, seed, faults, opt.routing, opt.warmup_cycles, capacity);
        const ShardedSaturationPoint sharded_faulty =
            simulate_saturation_sharded(n, load, cycles, seed, opt, &faults);
        expect_point_bitwise_eq(faulty.point, sharded_faulty.point);
        expect_tally_bitwise_eq(faulty.tally, sharded_faulty.tally);
        EXPECT_TRUE(sharded_faulty.conserved());
        misroutes += faulty.tally.misroutes;
        wraps += faulty.tally.wraps;
        queue_full += faulty.point.dropped_queue_full;
      }
    }
  }
  // The grid must reach the paths it claims to pin.
  EXPECT_GT(misroutes, 0u);
  EXPECT_GT(wraps, 0u);
  EXPECT_GT(queue_full, 0u);
}

/// The whole-run conservation ledgers of two kernel runs.
void expect_ledger_eq(const ShardedSaturationPoint& a, const ShardedSaturationPoint& b) {
  EXPECT_EQ(a.offered_total, b.offered_total);
  EXPECT_EQ(a.injected_total, b.injected_total);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.dropped_total, b.dropped_total);
  EXPECT_EQ(a.in_flight_end, b.in_flight_end);
}

/// simulate_saturation_sharded at each of `shard_counts` equals the serial
/// engines bit for bit, pristine and with a 5% static FaultSet, at queue
/// capacity 0 and 2 and on 1 and 4 threads; its ledger equals the serial
/// kernel's (the one-shard instantiation the serial engines run).  Returns the faulty runs' misroutes, wraps and
/// queue-full drops, so callers can check the paths were reached.
FaultTally expect_every_shard_count_equals_serial(int n, double load, u64 cycles,
                                                  const std::vector<u64>& shard_counts) {
  const FaultSet faults = FaultSet::random_links(n, 0.05, 70 + static_cast<u64>(n));
  const u64 seed = 900 + static_cast<u64>(n);
  FaultTally reached;
  for (const u64 capacity : {u64{0}, u64{2}}) {
    ShardedOptions opt;
    opt.warmup_cycles = 40;
    opt.queue_capacity = capacity;
    opt.routing.misroute_budget = 2;
    opt.routing.wrap_budget = 1;
    const SaturationPoint pristine =
        simulate_saturation(n, load, cycles, seed, opt.warmup_cycles, capacity);
    const FaultSaturationPoint faulty = simulate_saturation_faulty(
        n, load, cycles, seed, faults, opt.routing, opt.warmup_cycles, capacity);
    reached.misroutes += faulty.tally.misroutes;
    reached.wraps += faulty.tally.wraps;
    reached.dropped[drop_index(DropReason::kQueueFull)] += faulty.point.dropped_queue_full;
    detail::AllAlive alive;
    const ShardedSaturationPoint pristine_ledger =
        detail::run_packet_kernel<false>(n, load, cycles, seed, opt, alive, nullptr).out;
    const ShardedSaturationPoint faulty_ledger =
        detail::run_packet_kernel<false>(n, load, cycles, seed, opt, faults, nullptr).out;
    for (const u64 shards : shard_counts) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " capacity=" << capacity
                                          << " shards=" << shards << " threads=" << threads);
        opt.shard_count = shards;
        opt.threads = threads;
        const ShardedSaturationPoint p = simulate_saturation_sharded(n, load, cycles, seed, opt);
        expect_point_bitwise_eq(pristine, p.point);
        expect_tally_bitwise_eq(FaultTally{}, p.tally);
        expect_ledger_eq(pristine_ledger, p);
        EXPECT_TRUE(p.conserved());
        const ShardedSaturationPoint f =
            simulate_saturation_sharded(n, load, cycles, seed, opt, &faults);
        expect_point_bitwise_eq(faulty.point, f.point);
        expect_tally_bitwise_eq(faulty.tally, f.tally);
        expect_ledger_eq(faulty_ledger, f);
        EXPECT_TRUE(f.conserved());
      }
    }
  }
  return reached;
}

TEST(ShardedSim, EqualsTheSerialEnginesBitwiseForEveryShardCount) {
  FaultTally reached;
  for (const int n : {3, 6}) {
    std::vector<u64> shard_counts;
    for (u64 s = 1; s <= pow2(n); s *= 2) shard_counts.push_back(s);
    const FaultTally t = expect_every_shard_count_equals_serial(n, 0.8, 300, shard_counts);
    reached.misroutes += t.misroutes;
    reached.wraps += t.wraps;
    reached.dropped[drop_index(DropReason::kQueueFull)] +=
        t.dropped[drop_index(DropReason::kQueueFull)];
  }
  // The grid must reach the paths whose order the sharded phases rebuild.
  EXPECT_GT(reached.misroutes, 0u);
  EXPECT_GT(reached.wraps, 0u);
  EXPECT_GT(reached.dropped[drop_index(DropReason::kQueueFull)], 0u);
}

TEST(ShardedSim, EqualsTheSerialEnginesBitwiseAtB12) {
  const FaultTally t = expect_every_shard_count_equals_serial(12, 0.8, 60, {1, 8, 64, 4096});
  EXPECT_GT(t.misroutes, 0u);
  EXPECT_GT(t.wraps, 0u);
  EXPECT_GT(t.dropped[drop_index(DropReason::kQueueFull)], 0u);
}

TEST(ShardedSim, CancelStopsAtACycleBoundaryWithAnExactLedger) {
  CancelToken token;
  token.request_cancel();  // pre-cancelled: polled before cycle 0 runs
  ShardedOptions opt;
  opt.shard_count = 4;
  const ShardedSaturationPoint r =
      simulate_saturation_sharded(6, 0.8, 10'000, 3, opt, nullptr, &token);
  EXPECT_EQ(r.offered_total, 0u);
  EXPECT_EQ(r.point.throughput, 0.0);
  EXPECT_TRUE(r.conserved());
}

// ---------------------------------------------------------------------------
// Sweep integration and checkpoint identity

TEST(ShardedSweep, ShardedPointMatchesTheDirectEngineCall) {
  SweepPoint p;
  p.n = 6;
  p.offered_load = 0.6;
  p.cycles = 400;
  p.seed = 11;
  p.warmup_cycles = 50;
  p.shard_count = 4;
  const std::vector<SweepPoint> grid{p};
  const std::vector<SweepOutcome> outcomes = saturation_sweep(grid);
  ShardedOptions opt;
  opt.shard_count = 4;
  opt.warmup_cycles = 50;
  const ShardedSaturationPoint direct =
      simulate_saturation_sharded(6, 0.6, 400, 11, opt);
  EXPECT_EQ(outcomes[0].point.throughput, direct.point.throughput);
  EXPECT_EQ(outcomes[0].point.avg_latency, direct.point.avg_latency);
  EXPECT_EQ(outcomes[0].point.delivered, direct.point.delivered);
  EXPECT_EQ(outcomes[0].point.max_queue, direct.point.max_queue);
  // ... and both equal the serial engine's point.
  expect_point_bitwise_eq(outcomes[0].point, simulate_saturation(6, 0.6, 400, 11, 50));
}

TEST(ShardedSweep, ProbeRequestsFallBackToTheSerialEngineBitwise) {
  // shard_count plus a telemetry budget: the sharded engine carries no
  // probes, so the point must route to the serial engine, telemetry and
  // all, and match the shard_count == 0 outcome exactly.
  SweepPoint serial;
  serial.n = 5;
  serial.offered_load = 0.6;
  serial.cycles = 300;
  serial.seed = 9;
  serial.warmup_cycles = 50;
  serial.telemetry_budget = 16;
  SweepPoint sharded = serial;
  sharded.shard_count = 4;
  const std::vector<SweepPoint> grid{serial, sharded};
  const std::vector<SweepOutcome> outcomes = saturation_sweep(grid);
  EXPECT_EQ(outcomes[0].point.throughput, outcomes[1].point.throughput);
  EXPECT_EQ(outcomes[0].point.avg_latency, outcomes[1].point.avg_latency);
  EXPECT_EQ(outcomes[0].point.delivered, outcomes[1].point.delivered);
  EXPECT_EQ(outcomes[0].point.dropped_queue_full, outcomes[1].point.dropped_queue_full);
  EXPECT_TRUE(outcomes[0].timeseries == outcomes[1].timeseries);
}

TEST(ShardedSweep, ValidationRejectsBadShardCounts) {
  SweepPoint p;
  p.n = 4;
  p.offered_load = 0.5;
  p.cycles = 100;
  p.shard_count = 3;
  const std::vector<SweepPoint> bad{p};
  EXPECT_THROW(saturation_sweep(bad), InvalidArgument);
  p.shard_count = 32;  // > 2^4
  const std::vector<SweepPoint> too_many{p};
  EXPECT_THROW(saturation_sweep(too_many), InvalidArgument);
  p.shard_count = 4;
  const std::vector<SweepPoint> ok{p};
  EXPECT_NO_THROW(saturation_sweep(ok));
}

TEST(ShardedSweep, ShardCountJoinsTheCheckpointIdentity) {
  // shard_count no longer changes an outcome, but it still keys distinct
  // journal records (exec/checkpoint.cpp says why).
  SweepPoint p;
  p.n = 6;
  p.offered_load = 0.5;
  p.cycles = 200;
  p.seed = 1;
  const std::string serial_key = exec::sweep_point_key(p);
  SweepPoint q = p;
  q.shard_count = 2;
  EXPECT_NE(exec::sweep_point_key(q), serial_key);
  SweepPoint r = p;
  r.shard_count = 4;
  EXPECT_NE(exec::sweep_point_key(r), serial_key);
  EXPECT_NE(exec::sweep_point_key(r), exec::sweep_point_key(q));
  EXPECT_EQ(exec::sweep_point_key(q), exec::sweep_point_key(q));
}

// ---------------------------------------------------------------------------
// Kill/resume bit-identity for a sharded grid

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "bfly_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(ShardedSweep, KillAfterEveryPrefixThenResumeIsBitIdentical) {
  std::vector<SweepPoint> points;
  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    SweepPoint p;
    p.n = 6;
    p.offered_load = load;
    p.cycles = 300;
    p.seed = 13;
    p.warmup_cycles = 50;
    p.shard_count = 4;
    points.push_back(p);
  }
  exec::SweepRunOptions base;
  base.threads = 1;
  const std::vector<SweepOutcome> baseline = exec::run_sweep_resumable(points, base).outcomes;

  const std::string path = temp_path("sharded_kill_resume.ckpt");
  for (std::size_t k = 1; k < points.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "kill after " << k << " points");
    std::remove(path.c_str());
    CancelToken token;
    exec::SweepRunOptions kill;
    kill.threads = 1;
    kill.checkpoint_path = path;
    kill.cancel = &token;
    kill.after_checkpoint = [&](std::size_t appended) {
      if (appended == k) token.request_cancel();
    };
    const exec::SweepRun killed = exec::run_sweep_resumable(points, kill);
    EXPECT_EQ(killed.status, exec::SweepStatus::kCancelled);
    EXPECT_EQ(killed.num_completed, k);

    exec::SweepRunOptions resume;
    resume.threads = 3;
    resume.checkpoint_path = path;
    const exec::SweepRun resumed = exec::run_sweep_resumable(points, resume);
    EXPECT_EQ(resumed.status, exec::SweepStatus::kComplete);
    EXPECT_EQ(resumed.num_replayed, k);
    ASSERT_EQ(resumed.outcomes.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(resumed.outcomes[i].point.throughput, baseline[i].point.throughput);
      EXPECT_EQ(resumed.outcomes[i].point.avg_latency, baseline[i].point.avg_latency);
      EXPECT_EQ(resumed.outcomes[i].point.delivered, baseline[i].point.delivered);
      EXPECT_EQ(resumed.outcomes[i].point.max_queue, baseline[i].point.max_queue);
      EXPECT_EQ(resumed.outcomes[i].point.dropped_queue_full,
                baseline[i].point.dropped_queue_full);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfly
