// The cycle-parallel sharded engine (routing/sharded_sim.hpp) and its
// building blocks.
//
// The load-bearing contract is the determinism one: a sharded run is a pure
// function of (n, offered_load, cycles, seed, shard_count) — bitwise
// invariant across thread counts — and every offered packet is exactly
// accounted for (delivered + dropped + in flight == offered) over the whole
// run, warmup included.  On top of that sit the SPSC hand-off ring's FIFO
// semantics, the PacketArena against a deque model and its index-width
// hardening, the kernel's cycle bound, the sweep integration
// (dispatch, serial fallback, checkpoint identity), and the kill/resume
// bit-identity of a checkpointed sharded grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/exec.hpp"
#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "routing/packet_arena.hpp"
#include "routing/routing.hpp"
#include "routing/sharded_sim.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/spsc_ring.hpp"

namespace bfly {
namespace {

// ---------------------------------------------------------------------------
// util::SpscRing

TEST(SpscRing, RequiresPowerOfTwoCapacity) {
  EXPECT_THROW(util::SpscRing<int>(0), InvalidArgument);
  EXPECT_THROW(util::SpscRing<int>(3), InvalidArgument);
  EXPECT_THROW(util::SpscRing<int>(12), InvalidArgument);
  EXPECT_NO_THROW(util::SpscRing<int>(1));
  EXPECT_NO_THROW(util::SpscRing<int>(64));
}

TEST(SpscRing, FifoOrderAndFullEmpty) {
  util::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  int out = 0;
  EXPECT_FALSE(ring.try_pop(&out));  // empty pops fail
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full pushes fail, slot 0 not clobbered
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(&out));
    EXPECT_EQ(out, i);  // strict FIFO
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(&out));
}

TEST(SpscRing, WrapAroundPreservesOrder) {
  // Push/pop far past the capacity so head/tail wrap the index mask many
  // times; order and values must survive every wrap.
  util::SpscRing<int> ring(8);
  int expect = 0;
  int next = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(next++));
    for (int i = 0; i < 5; ++i) {
      int out = -1;
      ASSERT_TRUE(ring.try_pop(&out));
      EXPECT_EQ(out, expect++);
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ReuseAcrossCyclesLikeTheEngineDoes) {
  // The engine's pattern: fill during phase A, drain completely during phase
  // B, repeat.  The ring must come back empty-and-usable every cycle.
  util::SpscRing<u64> ring(16);
  for (u64 cycle = 0; cycle < 50; ++cycle) {
    const u64 n = cycle % 17;  // varying fill, including 0 and capacity
    for (u64 i = 0; i < std::min<u64>(n, 16); ++i) {
      ASSERT_TRUE(ring.try_push(cycle * 100 + i));
    }
    u64 out = 0;
    u64 drained = 0;
    while (ring.try_pop(&out)) {
      EXPECT_EQ(out, cycle * 100 + drained);
      ++drained;
    }
    EXPECT_EQ(drained, std::min<u64>(n, 16));
    EXPECT_TRUE(ring.empty());
  }
}

TEST(SpscRing, TwoThreadStressKeepsSequence) {
  // One producer, one consumer, tight capacity so both sides hit the
  // full/empty edges constantly.  Under TSan this is the data-race probe for
  // the acquire/release protocol; everywhere it checks the sequence exactly.
  // Yield on the full/empty edges: on a single-core runner a busy spin
  // ping-pongs against the OS scheduler for minutes; with yields the test is
  // milliseconds everywhere and TSan still sees every edge.
  util::SpscRing<u64> ring(4);
  constexpr u64 kCount = 20'000;
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    u64 expect = 0;
    while (expect < kCount) {
      u64 out = 0;
      if (ring.try_pop(&out)) {
        if (out != expect) {
          failed.store(true);
          return;
        }
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (u64 i = 0; i < kCount; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty());
}

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
// Conservation and statistical agreement with the serial engines

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

TEST(ShardedSim, AgreesStatisticallyWithTheSerialEngine) {
  // The sharded engine deliberately produces different bits (its injection
  // RNG decomposes per row block), but it simulates the same physics: at an
  // uncongested operating point both engines deliver essentially every
  // injected packet, so throughput must agree closely and latency loosely.
  const int n = 8;
  const double load = 0.5;
  const u64 cycles = 2000;
  const u64 warmup = 200;
  const SaturationPoint serial = simulate_saturation(n, load, cycles, 77, warmup, 0);
  ShardedOptions opt;
  opt.shard_count = 8;
  opt.warmup_cycles = warmup;
  const ShardedSaturationPoint sharded =
      simulate_saturation_sharded(n, load, cycles, 77, opt);
  EXPECT_TRUE(sharded.conserved());
  ASSERT_GT(serial.throughput, 0.0);
  EXPECT_NEAR(sharded.point.throughput / serial.throughput, 1.0, 0.05);
  ASSERT_GT(serial.avg_latency, 0.0);
  EXPECT_NEAR(sharded.point.avg_latency / serial.avg_latency, 1.0, 0.10);
}

// ---------------------------------------------------------------------------
// Exact equality with the serial engines at shard_count 1

/// The serial engines draw injections from Xoshiro256(seed); shard k of the
/// sharded engine draws from Xoshiro256(seed ^ kShardSeedMix * (k + 1)).  At
/// shard_count 1 the only shard is shard 0, so a sharded run seeded with
/// seed ^ kShardSeedMix replays the serial run's stream.
constexpr u64 kShardSeedMix = 0x9e3779b97f4a7c15ULL;

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
            simulate_saturation_sharded(n, load, cycles, seed ^ kShardSeedMix, opt);
        expect_point_bitwise_eq(pristine, sharded_pristine.point);
        expect_tally_bitwise_eq(FaultTally{}, sharded_pristine.tally);
        EXPECT_TRUE(sharded_pristine.conserved());

        const FaultSaturationPoint faulty = simulate_saturation_faulty(
            n, load, cycles, seed, faults, opt.routing, opt.warmup_cycles, capacity);
        const ShardedSaturationPoint sharded_faulty =
            simulate_saturation_sharded(n, load, cycles, seed ^ kShardSeedMix, opt, &faults);
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
}

TEST(ShardedSweep, ProbeRequestsFallBackToTheSerialEngineBitwise) {
  // shard_count plus a telemetry budget: the sharded engine carries no
  // probes, so the point must route to the serial engine and match the
  // shard_count == 0 outcome exactly, telemetry included.
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
