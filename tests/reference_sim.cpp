#include "reference_sim.hpp"

#include <algorithm>
#include <deque>

#include "util/prng.hpp"

namespace bfly {

SaturationPoint simulate_saturation_reference(int n, double offered_load, u64 cycles, u64 seed,
                                              u64 warmup_cycles, u64 queue_capacity) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(offered_load >= 0.0 && offered_load <= 1.0, "offered load is a probability");
  const Butterfly bf(n);
  const u64 rows = bf.rows();

  struct Packet {
    u64 dst;
    u64 injected_at;
  };
  // One FIFO per forward link.
  std::vector<std::deque<Packet>> queues(static_cast<std::size_t>(n) * rows * 2);
  Xoshiro256 rng(seed);

  SaturationPoint result;
  result.offered_load = offered_load;
  u64 in_flight = 0;
  double total_latency = 0.0;

  // Returns false when the packet is dropped (bounded-queue mode only).
  const auto enqueue = [&](u64 row, int stage, const Packet& pkt, bool measured) {
    const bool cross = ((row ^ pkt.dst) >> stage) & 1;
    auto& q = queues[link_index(bf, row, stage, cross)];
    if (queue_capacity > 0 && q.size() >= queue_capacity) {
      if (measured) ++result.dropped_queue_full;
      return false;
    }
    q.push_back(pkt);
    return true;
  };

  for (u64 cycle = 0; cycle < cycles; ++cycle) {
    const bool measured = cycle >= warmup_cycles;
    // Forward one packet per link, highest stage first so a packet moves at
    // most one hop per cycle.
    for (int s = n - 1; s >= 0; --s) {
      for (u64 row = 0; row < rows; ++row) {
        for (int c = 0; c < 2; ++c) {
          auto& q = queues[link_index(bf, row, s, c == 1)];
          if (q.empty()) continue;
          const Packet pkt = q.front();
          q.pop_front();
          const u64 next_row = c == 1 ? (row ^ pow2(s)) : row;
          if (s + 1 == n) {
            --in_flight;
            if (measured) {
              ++result.delivered;
              total_latency += static_cast<double>(cycle + 1 - pkt.injected_at);
            }
          } else if (!enqueue(next_row, s + 1, pkt, measured)) {
            --in_flight;
          }
        }
      }
    }
    // Inject.
    u64 cycle_injections = 0;
    for (u64 row = 0; row < rows; ++row) {
      if (rng.uniform() < offered_load) {
        if (enqueue(row, 0, Packet{rng.below(rows), cycle}, measured)) {
          ++cycle_injections;
        }
      }
    }
    in_flight += cycle_injections;
  }

  for (const auto& q : queues) {
    result.max_queue = std::max(result.max_queue, static_cast<u64>(q.size()));
  }
  const double measured_cycles = static_cast<double>(cycles - warmup_cycles);
  result.throughput =
      static_cast<double>(result.delivered) / (measured_cycles * static_cast<double>(rows));
  result.per_node_injection = result.throughput / static_cast<double>(n + 1);
  result.avg_latency =
      result.delivered > 0 ? total_latency / static_cast<double>(result.delivered) : 0.0;
  return result;
}

}  // namespace bfly
