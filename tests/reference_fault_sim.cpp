#include "reference_fault_sim.hpp"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace bfly {

namespace {

inline u64 dense_link(u64 rows, u64 row, int stage, bool cross) {
  return (static_cast<u64>(stage) * rows + row) * 2 + (cross ? 1 : 0);
}

}  // namespace

FaultSaturationPoint simulate_saturation_faulty_reference(
    int n, double offered_load, u64 cycles, u64 seed, const FaultSet& faults,
    const FaultRoutingOptions& options, u64 warmup_cycles, u64 queue_capacity) {
  BFLY_REQUIRE(n >= 1 && n <= 30, "butterfly dimension must be in [1, 30]");
  BFLY_REQUIRE(offered_load >= 0.0 && offered_load <= 1.0, "offered load is a probability");
  BFLY_REQUIRE(faults.dimension() == n, "fault set dimension mismatch");
  const u64 rows = pow2(n);

  struct Packet {
    u64 dst;
    u64 injected_at;
    u32 misroutes;
    u32 wraps;
  };
  std::vector<std::deque<Packet>> queues(static_cast<std::size_t>(n) * rows * 2);
  Xoshiro256 rng(seed);

  FaultSaturationPoint out;
  SaturationPoint& result = out.point;
  FaultTally& tally = out.tally;
  result.offered_load = offered_load;
  u64 in_flight = 0;
  double total_latency = 0.0;

  const auto count_drop = [&](DropReason reason, bool measured) {
    if (measured) ++tally.dropped[drop_index(reason)];
  };

  // Picks the stage-`stage` output link for a packet at `row` and enqueues it
  // there, charging a misroute when the packet must deflect.  Returns false
  // (after counting the drop) when the packet dies here instead.
  const auto enqueue = [&](u64 row, int stage, Packet pkt, bool measured) -> bool {
    const bool want = ((row ^ pkt.dst) >> stage) & 1;
    bool cross = want;
    if (!faults.link_alive(row, stage, want)) {
      if (!faults.link_alive(row, stage, !want)) {
        count_drop(DropReason::kNoAliveLink, measured);
        return false;
      }
      if (pkt.misroutes >= static_cast<u32>(std::max(options.misroute_budget, 0))) {
        count_drop(DropReason::kBudgetExhausted, measured);
        return false;
      }
      ++pkt.misroutes;
      if (measured) ++tally.misroutes;
      cross = !want;
    }
    auto& q = queues[dense_link(rows, row, stage, cross)];
    if (queue_capacity > 0 && q.size() >= queue_capacity) {
      count_drop(DropReason::kQueueFull, measured);
      return false;
    }
    q.push_back(pkt);
    return true;
  };

  std::vector<std::pair<u64, Packet>> wrapped;  // (row, packet) awaiting re-entry
  for (u64 cycle = 0; cycle < cycles; ++cycle) {
    const bool measured = cycle >= warmup_cycles;
    // Forward one packet per link, highest stage first so a packet moves at
    // most one hop per cycle; wrapped packets re-enter at stage 0 only after
    // the sweep, for the same reason.
    wrapped.clear();
    for (int s = n - 1; s >= 0; --s) {
      for (u64 row = 0; row < rows; ++row) {
        for (int c = 0; c < 2; ++c) {
          auto& q = queues[dense_link(rows, row, s, c == 1)];
          if (q.empty()) continue;
          const Packet pkt = q.front();
          q.pop_front();
          const u64 next_row = c == 1 ? (row ^ pow2(s)) : row;
          if (s + 1 == n) {
            if (next_row == pkt.dst) {
              --in_flight;
              if (measured) {
                ++result.delivered;
                ++tally.delivered;
                total_latency += static_cast<double>(cycle + 1 - pkt.injected_at);
              }
            } else if (pkt.wraps < static_cast<u32>(std::max(options.wrap_budget, 0)) &&
                       faults.node_alive(next_row, 0)) {
              Packet w = pkt;
              ++w.wraps;
              if (measured) ++tally.wraps;
              wrapped.emplace_back(next_row, w);
            } else {
              --in_flight;
              count_drop(pkt.wraps < static_cast<u32>(std::max(options.wrap_budget, 0))
                             ? DropReason::kNoAliveLink
                             : DropReason::kBudgetExhausted,
                         measured);
            }
          } else if (!enqueue(next_row, s + 1, pkt, measured)) {
            --in_flight;
          }
        }
      }
    }
    for (const auto& [row, pkt] : wrapped) {
      if (!enqueue(row, 0, pkt, measured)) --in_flight;
    }
    // Inject.
    u64 cycle_injections = 0;
    for (u64 row = 0; row < rows; ++row) {
      if (rng.uniform() < offered_load) {
        const Packet pkt{rng.below(rows), cycle, 0, 0};
        if (!faults.node_alive(row, 0) || !faults.node_alive(pkt.dst, n)) {
          count_drop(DropReason::kEndpointDead, measured);
          continue;
        }
        if (enqueue(row, 0, pkt, measured)) {
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
  result.dropped_queue_full = tally.dropped[drop_index(DropReason::kQueueFull)];
  return out;
}

}  // namespace bfly
