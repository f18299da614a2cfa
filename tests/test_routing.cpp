// Random routing: the empirical Theta(1/log R) injection bound of
// Theorem 2.1's lower-bound argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "reference_sim.hpp"
#include "routing/routing.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

TEST(Distance, SameRow) {
  EXPECT_EQ(butterfly_distance(4, 5, 1, 5, 3), 2);
  EXPECT_EQ(butterfly_distance(4, 5, 3, 5, 3), 0);
}

TEST(Distance, SingleBitAdjacent) {
  // Rows differing in bit 0: nodes at stages 0 and 1 are directly linked.
  EXPECT_EQ(butterfly_distance(3, 0, 0, 1, 1), 1);
  // Same rows-differ-in-bit-0 but both at stage 0: down and back.
  EXPECT_EQ(butterfly_distance(3, 0, 0, 1, 0), 2);
}

TEST(Distance, FullSweep) {
  // Opposite corners: all n bits differ; from stage 0 to stage n the walk is
  // exactly n hops.
  for (int n = 2; n <= 8; ++n) {
    EXPECT_EQ(butterfly_distance(n, 0, 0, pow2(n) - 1, n), n);
  }
}

TEST(Distance, SymmetricInEndpoints) {
  for (u64 r1 = 0; r1 < 8; ++r1) {
    for (u64 r2 = 0; r2 < 8; ++r2) {
      for (int s1 = 0; s1 <= 3; ++s1) {
        for (int s2 = 0; s2 <= 3; ++s2) {
          EXPECT_EQ(butterfly_distance(3, r1, s1, r2, s2),
                    butterfly_distance(3, r2, s2, r1, s1));
        }
      }
    }
  }
}

TEST(Distance, MatchesBfsGroundTruth) {
  // The closed-form sweep distance must equal true shortest paths on the
  // butterfly graph; verified exhaustively for n = 3 and 4.
  for (const int n : {3, 4}) {
    const Butterfly bf(n);
    const Graph g = bf.graph();
    const u64 nodes = g.num_nodes();
    for (u64 src = 0; src < nodes; ++src) {
      // BFS from src.
      std::vector<i64> dist(nodes, -1);
      std::vector<u64> queue{src};
      dist[src] = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const u64 v = queue[head];
        for (const u64 w : g.neighbors(v)) {
          if (dist[w] == -1) {
            dist[w] = dist[v] + 1;
            queue.push_back(w);
          }
        }
      }
      for (u64 dst = 0; dst < nodes; ++dst) {
        const i64 formula = butterfly_distance(n, bf.row_of(src), bf.stage_of(src),
                                               bf.row_of(dst), bf.stage_of(dst));
        EXPECT_EQ(formula, dist[dst])
            << "n=" << n << " src=(" << bf.row_of(src) << "," << bf.stage_of(src) << ") dst=("
            << bf.row_of(dst) << "," << bf.stage_of(dst) << ")";
      }
    }
  }
}

TEST(Distance, AverageIsThetaLogR) {
  // Average distance between random nodes grows linearly in n (Theta(log R)).
  const double d6 = average_node_distance(6, 20000, 1);
  const double d12 = average_node_distance(12, 20000, 1);
  EXPECT_GT(d6, 0.5 * 6);
  EXPECT_LT(d6, 2.5 * 6);
  EXPECT_NEAR(d12 / d6, 2.0, 0.4);
}

TEST(LoadCensus, DeterministicAndBalanced) {
  const LoadCensus a = measure_link_loads(6, 200000, 42, 4);
  const LoadCensus b = measure_link_loads(6, 200000, 42, 4);
  EXPECT_EQ(a.max_link_load, b.max_link_load);
  EXPECT_DOUBLE_EQ(a.avg_link_load, b.avg_link_load);
  // Uniform traffic balances within a small constant.
  EXPECT_LT(a.imbalance, 1.5);
  // Each packet traverses exactly n links in the DAG.
  EXPECT_DOUBLE_EQ(a.avg_distance, 6.0);
}

TEST(LoadCensus, AverageLoadMatchesFlowConservation) {
  // packets * n traversals spread over 2 n R links: avg = packets / (2R).
  const int n = 5;
  const u64 packets = 64000;
  const LoadCensus c = measure_link_loads(n, packets, 7, 2);
  EXPECT_DOUBLE_EQ(c.avg_link_load, static_cast<double>(packets) / (2.0 * pow2(n)));
}

TEST(LoadCensus, DeterministicAcrossThreadCounts) {
  // Packet streams are seeded per fixed-size chunk, not per thread, so for a
  // fixed seed the census is bitwise identical however the chunks are split
  // across workers.  300k packets spans multiple 2^16-packet chunks, so the
  // multithreaded runs genuinely split the work.
  const u64 packets = 300000;
  const LoadCensus one = measure_link_loads(6, packets, 3, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    const LoadCensus other = measure_link_loads(6, packets, 3, threads);
    EXPECT_EQ(one.max_link_load, other.max_link_load) << threads;
    EXPECT_DOUBLE_EQ(one.avg_link_load, other.avg_link_load) << threads;
    EXPECT_DOUBLE_EQ(one.imbalance, other.imbalance) << threads;
    EXPECT_DOUBLE_EQ(one.avg_distance, other.avg_distance) << threads;
  }
}

TEST(Saturation, LowLoadDeliversEverything) {
  const SaturationPoint p = simulate_saturation(5, 0.2, 2000, 9, 200);
  EXPECT_NEAR(p.throughput, 0.2, 0.02);
  // Latency close to the n-cycle pipeline depth.
  EXPECT_LT(p.avg_latency, 10.0);
  EXPECT_LT(p.max_queue, 20u);
}

TEST(Saturation, HighLoadSaturates) {
  const SaturationPoint low = simulate_saturation(5, 0.3, 2000, 9, 200);
  const SaturationPoint high = simulate_saturation(5, 0.95, 2000, 9, 200);
  EXPECT_GT(high.avg_latency, low.avg_latency);
  // Per-node injection at saturation is Theta(1/log R): bounded by
  // 1/(n+1) and not hugely below it.
  EXPECT_LE(high.per_node_injection, 1.0 / 6.0 + 1e-9);
  EXPECT_GT(high.per_node_injection, 0.5 / 6.0);
}

TEST(Saturation, ThroughputMonotoneInOfferedLoadBelowCapacity) {
  double prev = -1.0;
  for (const double load : {0.1, 0.3, 0.5}) {
    const SaturationPoint p = simulate_saturation(4, load, 3000, 11, 300);
    EXPECT_GT(p.throughput, prev);
    prev = p.throughput;
  }
}

TEST(Saturation, RejectsBadLoad) {
  EXPECT_THROW(simulate_saturation(4, 1.5, 100, 1), InvalidArgument);
}

TEST(Validation, RejectsOutOfRangeDimension) {
  // n = 0 is degenerate and n = 31 would overflow the dense link-index space
  // (n * 2^n * 2 links) long before exhausting u64 packet counts elsewhere.
  EXPECT_THROW(measure_link_loads(0, 100, 1), InvalidArgument);
  EXPECT_THROW(measure_link_loads(31, 100, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation(0, 0.5, 100, 1), InvalidArgument);
  EXPECT_THROW(simulate_saturation(31, 0.5, 100, 1), InvalidArgument);
  EXPECT_THROW(average_node_distance(0, 100, 1), InvalidArgument);
  EXPECT_THROW(average_node_distance(31, 100, 1), InvalidArgument);
  EXPECT_THROW(average_node_distance(4, 0, 1), InvalidArgument);
}

TEST(Saturation, BoundedQueuesDropAndStayBounded) {
  const SaturationPoint bounded = simulate_saturation(5, 0.95, 800, 3, 100, /*queue_capacity=*/2);
  EXPECT_GT(bounded.dropped_queue_full, 0u);
  EXPECT_LE(bounded.max_queue, 2u);
  const SaturationPoint unbounded = simulate_saturation(5, 0.95, 800, 3, 100);
  EXPECT_EQ(unbounded.dropped_queue_full, 0u);
  // Dropping work cannot raise throughput.
  EXPECT_LE(bounded.throughput, unbounded.throughput + 1e-9);
}

TEST(Saturation, ArenaMatchesReferenceBitwise) {
  // The tentpole contract of the flat-arena engine: identical FIFO semantics,
  // RNG stream, and accumulation order as the seed deque simulator, so every
  // SaturationPoint field matches bit for bit — across seeds, loads, and both
  // unbounded and bounded-queue modes.
  for (const u64 seed : {u64{3}, u64{9}, u64{2026}}) {
    for (const double load : {0.2, 0.6, 0.95}) {
      for (const u64 capacity : {u64{0}, u64{2}, u64{8}}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " load=" << load << " capacity=" << capacity);
        const SaturationPoint ref =
            simulate_saturation_reference(5, load, 800, seed, 100, capacity);
        const SaturationPoint arena = simulate_saturation(5, load, 800, seed, 100, capacity);
        EXPECT_DOUBLE_EQ(arena.offered_load, ref.offered_load);
        EXPECT_DOUBLE_EQ(arena.throughput, ref.throughput);
        EXPECT_DOUBLE_EQ(arena.avg_latency, ref.avg_latency);
        EXPECT_DOUBLE_EQ(arena.per_node_injection, ref.per_node_injection);
        EXPECT_EQ(arena.delivered, ref.delivered);
        EXPECT_EQ(arena.max_queue, ref.max_queue);
        EXPECT_EQ(arena.dropped_queue_full, ref.dropped_queue_full);
      }
    }
  }
}

TEST(Distance, AverageMatchesSerialChunkOracle) {
  // average_node_distance draws samples in 2^16-sample chunks seeded by
  // (seed, chunk index).  Recompute the n = 6 value with a plain serial loop
  // over the same chunk scheme: the parallel version must match it exactly,
  // for every thread count.
  const int n = 6;
  const u64 samples = 150000;  // spans multiple chunks
  const u64 seed = 17;
  constexpr u64 kChunkSamples = u64{1} << 16;
  const u64 rows = pow2(n);
  i64 total = 0;
  for (u64 chunk = 0; chunk * kChunkSamples < samples; ++chunk) {
    Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (chunk + 1)));
    const u64 end = std::min(samples, (chunk + 1) * kChunkSamples);
    for (u64 i = chunk * kChunkSamples; i < end; ++i) {
      const u64 r1 = rng.below(rows);
      const u64 r2 = rng.below(rows);
      const int s1 = static_cast<int>(rng.below(static_cast<u64>(n) + 1));
      const int s2 = static_cast<int>(rng.below(static_cast<u64>(n) + 1));
      total += butterfly_distance(n, r1, s1, r2, s2);
    }
  }
  const double expected = static_cast<double>(total) / static_cast<double>(samples);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    EXPECT_DOUBLE_EQ(average_node_distance(n, samples, seed, threads), expected)
        << "threads=" << threads;
  }
}

TEST(Validation, CongestionRejectsOutOfRangeDimension) {
  const std::vector<u64> empty_perm;
  EXPECT_THROW(permutation_congestion(0, empty_perm), InvalidArgument);
  EXPECT_THROW(permutation_congestion(31, empty_perm), InvalidArgument);
  EXPECT_THROW(bit_reversal_congestion(0), InvalidArgument);
  EXPECT_THROW(bit_reversal_congestion(31), InvalidArgument);
}

TEST(Saturation, HugeCapacityMatchesUnboundedBitwise) {
  // A bound that is never hit must not perturb the simulation at all.
  const SaturationPoint unbounded = simulate_saturation(5, 0.6, 1000, 7, 100);
  const SaturationPoint huge = simulate_saturation(5, 0.6, 1000, 7, 100, u64{1} << 40);
  EXPECT_DOUBLE_EQ(huge.throughput, unbounded.throughput);
  EXPECT_DOUBLE_EQ(huge.avg_latency, unbounded.avg_latency);
  EXPECT_EQ(huge.delivered, unbounded.delivered);
  EXPECT_EQ(huge.max_queue, unbounded.max_queue);
  EXPECT_EQ(huge.dropped_queue_full, 0u);
}

}  // namespace
}  // namespace bfly
