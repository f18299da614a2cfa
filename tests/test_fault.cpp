// bfly::fault: fault injection, the budgeted fault-tolerant router, and the
// degradation / packaging-robustness analyses.
//
// The two load-bearing contracts checked here:
//   * Determinism — every instrument is bitwise reproducible per seed across
//     thread counts, and with an empty FaultSet the fault-aware census and
//     simulator reproduce their pristine counterparts bit for bit.
//   * Soundness — the budgeted router never "delivers" a packet the
//     exhaustive BFS oracle says is unreachable, and every oracle-unreachable
//     pair is dropped (exhaustively cross-checked at small n).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/degradation.hpp"
#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "reference_fault_sim.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/render.hpp"
#include "packaging/hierarchical.hpp"
#include "routing/routing.hpp"

namespace bfly {
namespace {

// --- FaultSet ---------------------------------------------------------------

TEST(FaultSet, StartsAllAlive) {
  const FaultSet f(4);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.num_dead_links(), 0u);
  EXPECT_EQ(f.num_dead_nodes(), 0u);
  EXPECT_EQ(f.num_links(), 4u * 16u * 2u);
  EXPECT_EQ(f.num_nodes(), 5u * 16u);
  EXPECT_TRUE(f.link_alive(3, 2, true));
  EXPECT_TRUE(f.node_alive(15, 4));
}

TEST(FaultSet, FailLinkIsIdempotent) {
  FaultSet f(3);
  f.fail_link(2, 1, false);
  f.fail_link(2, 1, false);
  EXPECT_EQ(f.num_dead_links(), 1u);
  EXPECT_FALSE(f.link_alive(2, 1, false));
  EXPECT_TRUE(f.link_alive(2, 1, true));
  EXPECT_FALSE(f.empty());
}

TEST(FaultSet, FailNodeInducesIncidentLinkFaults) {
  // An interior node (row 0, stage 1) of B_3 has two outgoing links and two
  // incoming: straight from (0, 0) and cross from (0 ^ 1, 0).
  FaultSet f(3);
  f.fail_node(0, 1);
  EXPECT_EQ(f.num_dead_nodes(), 1u);
  EXPECT_FALSE(f.node_alive(0, 1));
  EXPECT_FALSE(f.link_alive(0, 1, false));
  EXPECT_FALSE(f.link_alive(0, 1, true));
  EXPECT_FALSE(f.link_alive(0, 0, false));
  EXPECT_FALSE(f.link_alive(1, 0, true));
  EXPECT_EQ(f.num_dead_links(), 4u);
  // Boundary nodes only have links on one side.
  FaultSet g(3);
  g.fail_node(5, 0);
  EXPECT_EQ(g.num_dead_links(), 2u);
  FaultSet h(3);
  h.fail_node(5, 3);
  EXPECT_EQ(h.num_dead_links(), 2u);
}

TEST(FaultSet, RejectsOutOfRange) {
  EXPECT_THROW(FaultSet(0), InvalidArgument);
  EXPECT_THROW(FaultSet(31), InvalidArgument);
  FaultSet f(3);
  EXPECT_THROW(f.fail_link(8, 0, false), InvalidArgument);
  EXPECT_THROW(f.fail_node(0, 4), InvalidArgument);
  EXPECT_THROW((void)f.link_alive(0, 3, false), InvalidArgument);
}

TEST(FaultSet, RandomLinksIsDeterministicAndRateFaithful) {
  const FaultSet a = FaultSet::random_links(6, 0.1, 77);
  const FaultSet b = FaultSet::random_links(6, 0.1, 77);
  EXPECT_EQ(a.num_dead_links(), b.num_dead_links());
  for (u64 link = 0; link < a.num_links(); ++link) {
    ASSERT_EQ(a.link_alive_index(link), b.link_alive_index(link)) << link;
  }
  EXPECT_TRUE(FaultSet::random_links(6, 0.0, 77).empty());
  EXPECT_EQ(FaultSet::random_links(6, 1.0, 77).num_dead_links(), a.num_links());
  // ~10% of 768 links, within generous Monte-Carlo slack.
  EXPECT_GT(a.num_dead_links(), 30u);
  EXPECT_LT(a.num_dead_links(), 140u);
  const FaultSet c = FaultSet::random_links(6, 0.1, 78);
  EXPECT_TRUE(a.num_dead_links() != c.num_dead_links() || [&] {
    for (u64 link = 0; link < a.num_links(); ++link) {
      if (a.link_alive_index(link) != c.link_alive_index(link)) return true;
    }
    return false;
  }());
}

TEST(FaultSet, RandomNodesInducesLinks) {
  const FaultSet f = FaultSet::random_nodes(5, 0.05, 3);
  EXPECT_GT(f.num_dead_nodes(), 0u);
  EXPECT_GT(f.num_dead_links(), f.num_dead_nodes());  // >= 2 links per node
  EXPECT_TRUE(FaultSet::random_nodes(5, 0.0, 3).empty());
}

// --- route_packet -----------------------------------------------------------

TEST(RoutePacket, PristineFabricBitFixes) {
  const FaultSet f(4);
  std::vector<u64> path;
  const RouteResult r = route_packet(4, f, {}, 3, 12, &path);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops, 4);
  EXPECT_EQ(r.misroutes, 0);
  EXPECT_EQ(r.wraps, 0);
  EXPECT_EQ(path.size(), 4u);
}

TEST(RoutePacket, MisroutesAroundADeadLinkThenWraps) {
  // 0 -> 0 in B_3 wants straight everywhere; killing straight (0, 0) forces
  // one deflection onto row 1, and the packet fixes bit 0 on a second pass.
  FaultSet f(3);
  f.fail_link(0, 0, false);
  const RouteResult r = route_packet(3, f, {}, 0, 0);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.misroutes, 1);
  EXPECT_EQ(r.wraps, 1);
  EXPECT_EQ(r.hops, 6);
}

TEST(RoutePacket, DropReasons) {
  {  // No misroute budget: the deflection above is not allowed.
    FaultSet f(3);
    f.fail_link(0, 0, false);
    const RouteResult r = route_packet(3, f, {.misroute_budget = 0, .wrap_budget = 2}, 0, 0);
    EXPECT_FALSE(r.delivered);
    EXPECT_EQ(r.reason, DropReason::kBudgetExhausted);
  }
  {  // No wrap budget: the packet reaches stage n on the wrong row.
    FaultSet f(3);
    f.fail_link(0, 0, false);
    const RouteResult r = route_packet(3, f, {.misroute_budget = 8, .wrap_budget = 0}, 0, 0);
    EXPECT_FALSE(r.delivered);
    EXPECT_EQ(r.reason, DropReason::kBudgetExhausted);
  }
  {  // Both forward links dead at the source.
    FaultSet f(3);
    f.fail_link(0, 0, false);
    f.fail_link(0, 0, true);
    const RouteResult r = route_packet(3, f, {}, 0, 5);
    EXPECT_FALSE(r.delivered);
    EXPECT_EQ(r.reason, DropReason::kNoAliveLink);
  }
  {  // Dead source / destination switch.
    FaultSet f(3);
    f.fail_node(0, 0);
    EXPECT_EQ(route_packet(3, f, {}, 0, 5).reason, DropReason::kEndpointDead);
    FaultSet g(3);
    g.fail_node(5, 3);
    EXPECT_EQ(route_packet(3, g, {}, 0, 5).reason, DropReason::kEndpointDead);
  }
}

// --- BFS oracle cross-check -------------------------------------------------

TEST(Oracle, PristineFabricReachesEverything) {
  const FaultSet f(4);
  for (u64 src = 0; src < 16; ++src) {
    const std::vector<std::uint8_t> out = reachable_destinations(4, f, src);
    EXPECT_EQ(std::count(out.begin(), out.end(), 1), 16);
  }
  EXPECT_DOUBLE_EQ(exact_reachability(4, f), 1.0);
}

// The budgeted router against the exhaustive oracle, over every (src, dst)
// pair of small faulted fabrics: delivered implies reachable, and (with a
// generous budget) unreachable implies dropped for a terminal reason.
TEST(Oracle, RouterNeverBeatsTheOracle) {
  const FaultRoutingOptions generous{.misroute_budget = 32, .wrap_budget = 8};
  for (const int n : {3, 4, 5}) {
    const u64 rows = pow2(n);
    for (const double rate : {0.05, 0.15, 0.3}) {
      for (const u64 seed : {1ull, 2ull, 3ull}) {
        const FaultSet faults = FaultSet::random_links(n, rate, seed);
        for (u64 src = 0; src < rows; ++src) {
          const std::vector<std::uint8_t> reach = reachable_destinations(n, faults, src);
          for (u64 dst = 0; dst < rows; ++dst) {
            const RouteResult r = route_packet(n, faults, generous, src, dst);
            if (r.delivered) {
              EXPECT_TRUE(reach[dst])
                  << "router delivered an oracle-unreachable packet: n=" << n
                  << " rate=" << rate << " seed=" << seed << " " << src << "->" << dst;
            }
            if (!reach[dst]) {
              EXPECT_FALSE(r.delivered);
            }
          }
        }
      }
    }
  }
}

TEST(Oracle, ExactReachabilityMatchesPerSourceCounts) {
  const FaultSet faults = FaultSet::random_links(4, 0.2, 9);
  u64 reachable = 0;
  for (u64 src = 0; src < 16; ++src) {
    const std::vector<std::uint8_t> out = reachable_destinations(4, faults, src);
    reachable += static_cast<u64>(std::count(out.begin(), out.end(), 1));
  }
  EXPECT_DOUBLE_EQ(exact_reachability(4, faults), static_cast<double>(reachable) / 256.0);
}

// --- fault-aware census -----------------------------------------------------

TEST(FaultCensus, EmptyFaultSetReproducesPristineCensusBitwise) {
  const int n = 6;
  const u64 packets = 200000;
  const u64 seed = 42;
  const LoadCensus pristine = measure_link_loads(n, packets, seed, 0, /*keep_link_loads=*/true);
  const FaultSet none(n);
  const FaultLoadCensus faulty =
      measure_link_loads_faulty(n, packets, seed, none, {}, 0, /*keep_link_loads=*/true);
  EXPECT_EQ(faulty.census.packets, pristine.packets);
  EXPECT_EQ(faulty.census.max_link_load, pristine.max_link_load);
  EXPECT_DOUBLE_EQ(faulty.census.avg_link_load, pristine.avg_link_load);
  EXPECT_DOUBLE_EQ(faulty.census.imbalance, pristine.imbalance);
  EXPECT_DOUBLE_EQ(faulty.census.avg_distance, pristine.avg_distance);
  ASSERT_EQ(faulty.census.link_loads.size(), pristine.link_loads.size());
  EXPECT_EQ(faulty.census.link_loads, pristine.link_loads);
  EXPECT_EQ(faulty.tally.delivered, packets);
  EXPECT_EQ(faulty.tally.total_dropped(), 0u);
  EXPECT_EQ(faulty.tally.misroutes, 0u);
  EXPECT_EQ(faulty.tally.wraps, 0u);
  EXPECT_DOUBLE_EQ(faulty.delivered_fraction, 1.0);
}

TEST(FaultCensus, BitwiseDeterministicAcrossThreadCounts) {
  const int n = 6;
  const FaultSet faults = FaultSet::random_links(n, 0.05, 21);
  const FaultLoadCensus one =
      measure_link_loads_faulty(n, 300000, 7, faults, {}, 1, /*keep_link_loads=*/true);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    const FaultLoadCensus other =
        measure_link_loads_faulty(n, 300000, 7, faults, {}, threads, /*keep_link_loads=*/true);
    EXPECT_EQ(one.census.link_loads, other.census.link_loads) << threads;
    EXPECT_EQ(one.census.max_link_load, other.census.max_link_load) << threads;
    EXPECT_DOUBLE_EQ(one.census.avg_distance, other.census.avg_distance) << threads;
    EXPECT_EQ(one.tally.delivered, other.tally.delivered) << threads;
    EXPECT_EQ(one.tally.dropped, other.tally.dropped) << threads;
    EXPECT_EQ(one.tally.misroutes, other.tally.misroutes) << threads;
    EXPECT_EQ(one.tally.wraps, other.tally.wraps) << threads;
  }
  // Faults actually bit: something was deflected or dropped.
  EXPECT_GT(one.tally.misroutes + one.tally.total_dropped(), 0u);
  EXPECT_LT(one.delivered_fraction, 1.0 + 1e-12);
}

TEST(FaultCensus, SeveredStageZeroDropsEverything) {
  const int n = 4;
  FaultSet faults(n);
  for (u64 row = 0; row < pow2(n); ++row) {
    faults.fail_link(row, 0, false);
    faults.fail_link(row, 0, true);
  }
  const FaultLoadCensus census = measure_link_loads_faulty(n, 50000, 5, faults);
  EXPECT_EQ(census.tally.delivered, 0u);
  EXPECT_EQ(census.tally.dropped[drop_index(DropReason::kNoAliveLink)], 50000u);
  EXPECT_DOUBLE_EQ(census.delivered_fraction, 0.0);
}

// --- fault-aware saturation simulation --------------------------------------

TEST(FaultSaturation, EmptyFaultSetReproducesPristineSimulatorBitwise) {
  const int n = 5;
  const SaturationPoint pristine = simulate_saturation(n, 0.3, 1500, 9, 200);
  const FaultSet none(n);
  const FaultSaturationPoint faulty = simulate_saturation_faulty(n, 0.3, 1500, 9, none, {}, 200);
  EXPECT_DOUBLE_EQ(faulty.point.offered_load, pristine.offered_load);
  EXPECT_DOUBLE_EQ(faulty.point.throughput, pristine.throughput);
  EXPECT_DOUBLE_EQ(faulty.point.avg_latency, pristine.avg_latency);
  EXPECT_DOUBLE_EQ(faulty.point.per_node_injection, pristine.per_node_injection);
  EXPECT_EQ(faulty.point.delivered, pristine.delivered);
  EXPECT_EQ(faulty.point.max_queue, pristine.max_queue);
  EXPECT_EQ(faulty.point.dropped_queue_full, 0u);
  EXPECT_EQ(faulty.tally.total_dropped(), 0u);
  EXPECT_EQ(faulty.tally.misroutes, 0u);
  EXPECT_EQ(faulty.tally.wraps, 0u);
}

TEST(FaultSaturation, DeterministicAndDegradedUnderFaults) {
  const int n = 6;
  const FaultSet faults = FaultSet::random_links(n, 0.05, 13);
  const FaultSaturationPoint a = simulate_saturation_faulty(n, 0.5, 1500, 9, faults, {}, 200);
  const FaultSaturationPoint b = simulate_saturation_faulty(n, 0.5, 1500, 9, faults, {}, 200);
  EXPECT_DOUBLE_EQ(a.point.throughput, b.point.throughput);
  EXPECT_DOUBLE_EQ(a.point.avg_latency, b.point.avg_latency);
  EXPECT_EQ(a.point.delivered, b.point.delivered);
  EXPECT_EQ(a.tally.dropped, b.tally.dropped);
  EXPECT_EQ(a.tally.misroutes, b.tally.misroutes);
  EXPECT_EQ(a.tally.wraps, b.tally.wraps);
  // 5% dead links must cost something relative to the pristine fabric.
  const SaturationPoint pristine = simulate_saturation(n, 0.5, 1500, 9, 200);
  EXPECT_GT(a.tally.total_dropped() + a.tally.misroutes, 0u);
  EXPECT_LE(a.point.throughput, pristine.throughput + 1e-9);
  EXPECT_GT(a.point.delivered, 0u);
}

TEST(FaultSaturation, BoundedQueuesMatchPristineBoundedMode) {
  // With no faults, the fault-aware simulator's bounded-queue mode must agree
  // with simulate_saturation's: same streams, same drops, same stats.
  const int n = 5;
  const u64 capacity = 2;
  const SaturationPoint pristine = simulate_saturation(n, 0.95, 800, 3, 100, capacity);
  const FaultSet none(n);
  const FaultSaturationPoint faulty =
      simulate_saturation_faulty(n, 0.95, 800, 3, none, {}, 100, capacity);
  EXPECT_DOUBLE_EQ(faulty.point.throughput, pristine.throughput);
  EXPECT_DOUBLE_EQ(faulty.point.avg_latency, pristine.avg_latency);
  EXPECT_EQ(faulty.point.delivered, pristine.delivered);
  EXPECT_EQ(faulty.point.max_queue, pristine.max_queue);
  EXPECT_EQ(faulty.point.dropped_queue_full, pristine.dropped_queue_full);
  EXPECT_EQ(faulty.tally.dropped[drop_index(DropReason::kQueueFull)],
            pristine.dropped_queue_full);
  EXPECT_GT(pristine.dropped_queue_full, 0u);
  EXPECT_LE(pristine.max_queue, capacity);
}

TEST(FaultSaturation, ArenaMatchesReferenceBitwise) {
  // The tentpole contract for the faulty engine: the flat-arena FIFOs (with
  // misroute/wrap budget lanes) replicate the seed deque simulator bit for
  // bit — every SaturationPoint field and every FaultTally counter — across
  // seeds, fault rates, and both unbounded and bounded-queue modes.
  const int n = 5;
  for (const u64 seed : {u64{3}, u64{9}, u64{2026}}) {
    for (const double rate : {0.0, 0.02, 0.08}) {
      for (const u64 capacity : {u64{0}, u64{3}}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " rate=" << rate << " capacity=" << capacity);
        const FaultSet faults = FaultSet::random_links(n, rate, seed + 100);
        const FaultSaturationPoint ref = simulate_saturation_faulty_reference(
            n, 0.6, 800, seed, faults, {}, 100, capacity);
        const FaultSaturationPoint arena =
            simulate_saturation_faulty(n, 0.6, 800, seed, faults, {}, 100, capacity);
        EXPECT_DOUBLE_EQ(arena.point.offered_load, ref.point.offered_load);
        EXPECT_DOUBLE_EQ(arena.point.throughput, ref.point.throughput);
        EXPECT_DOUBLE_EQ(arena.point.avg_latency, ref.point.avg_latency);
        EXPECT_DOUBLE_EQ(arena.point.per_node_injection, ref.point.per_node_injection);
        EXPECT_EQ(arena.point.delivered, ref.point.delivered);
        EXPECT_EQ(arena.point.max_queue, ref.point.max_queue);
        EXPECT_EQ(arena.point.dropped_queue_full, ref.point.dropped_queue_full);
        EXPECT_EQ(arena.tally.delivered, ref.tally.delivered);
        EXPECT_EQ(arena.tally.dropped, ref.tally.dropped);
        EXPECT_EQ(arena.tally.misroutes, ref.tally.misroutes);
        EXPECT_EQ(arena.tally.wraps, ref.tally.wraps);
      }
    }
  }
}

// --- input validation -------------------------------------------------------

TEST(FaultValidation, RejectsOutOfRangeDimension) {
  const FaultSet f(3);
  EXPECT_THROW(measure_link_loads_faulty(0, 100, 1, f), InvalidArgument);
  EXPECT_THROW(measure_link_loads_faulty(31, 100, 1, f), InvalidArgument);
  EXPECT_THROW(simulate_saturation_faulty(0, 0.5, 100, 1, f), InvalidArgument);
  // Dimension mismatch between n and the fault set.
  EXPECT_THROW(measure_link_loads_faulty(4, 100, 1, f), InvalidArgument);
  EXPECT_THROW(simulate_saturation_faulty(4, 0.5, 100, 1, f), InvalidArgument);
  EXPECT_THROW(route_packet(4, f, {}, 0, 1), InvalidArgument);
}

TEST(FaultValidation, DegradationRejectsBadBudgetsAndRates) {
  DegradationOptions options;
  options.routing.misroute_budget = -1;
  EXPECT_THROW(degradation_sweep(4, std::vector<double>{0.1}, 1, options), InvalidArgument);
  options.routing.misroute_budget = 8;
  options.routing.wrap_budget = -2;
  EXPECT_THROW(degradation_sweep(4, std::vector<double>{0.1}, 1, options), InvalidArgument);
  options.routing.wrap_budget = 2;
  // Bad rates are rejected up front with the offending index in the message.
  const std::vector<double> nan_rate = {0.1, std::nan("")};
  try {
    degradation_sweep(4, nan_rate, 1, options);
    FAIL() << "NaN rate accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("rate 1"), std::string::npos) << e.what();
  }
  EXPECT_THROW(degradation_sweep(4, std::vector<double>{-0.1}, 1, options), InvalidArgument);
  EXPECT_THROW(degradation_sweep(4, std::vector<double>{1.5}, 1, options), InvalidArgument);
}

// --- degradation curve ------------------------------------------------------

TEST(Degradation, CurveIsPristineAtRateZeroAndDegrades) {
  DegradationOptions options;
  options.census_packets = 50000;
  options.sim_cycles = 800;
  options.sim_warmup = 100;
  const std::vector<double> rates = {0.0, 0.1, 0.3};
  const std::vector<DegradationPoint> curve = degradation_curve(5, rates, 77, options);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].dead_links, 0u);
  EXPECT_DOUBLE_EQ(curve[0].reachability, 1.0);
  EXPECT_TRUE(curve[0].reachability_exact);
  EXPECT_DOUBLE_EQ(curve[0].delivered_fraction, 1.0);
  EXPECT_GT(curve[0].throughput, 0.0);
  EXPECT_GT(curve[2].dead_links, curve[1].dead_links);
  EXPECT_LT(curve[2].reachability, curve[0].reachability);
  EXPECT_LT(curve[2].delivered_fraction, 1.0);
  // Deterministic: same seed, same curve.
  const std::vector<DegradationPoint> again = degradation_curve(5, rates, 77, options);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].reachability, again[i].reachability) << i;
    EXPECT_DOUBLE_EQ(curve[i].delivered_fraction, again[i].delivered_fraction) << i;
    EXPECT_DOUBLE_EQ(curve[i].throughput, again[i].throughput) << i;
    EXPECT_EQ(curve[i].misroutes, again[i].misroutes) << i;
  }
}

// --- packaging robustness ---------------------------------------------------

TEST(ChipFault, Section5ExampleLosesOneChipOfNodes) {
  const HierarchicalPlan plan = plan_hierarchical(9, {});
  ASSERT_EQ(plan.num_chips, 64u);
  const ChipFaultImpact impact = analyze_chip_fault(plan, 0, /*with_reachability=*/true);
  EXPECT_EQ(impact.nodes_lost, plan.nodes_per_chip);
  EXPECT_EQ(impact.nodes_lost, 80u);
  EXPECT_GE(impact.rows_touched, pow2(plan.rows_log2));
  EXPECT_LE(impact.dead_offmodule_links, plan.offchip_links_per_chip);
  EXPECT_GT(impact.dead_offmodule_links, 0u);
  EXPECT_LT(impact.reachability, 1.0);
  EXPECT_GT(impact.reachability, 0.5);  // one chip of 64 must not sever most pairs
  EXPECT_THROW(analyze_chip_fault(plan, plan.num_chips, false), InvalidArgument);
}

TEST(ChipFault, SpareChipSweepBoundsMatchThePlan) {
  const HierarchicalPlan plan = plan_hierarchical(9, {});
  const SpareChipSummary summary = spare_chip_sensitivity(plan);
  EXPECT_EQ(summary.num_chips, plan.num_chips);
  EXPECT_EQ(summary.nodes_per_chip, plan.nodes_per_chip);
  // offchip_links_per_chip is the plan's exact per-chip maximum, so the sweep
  // must find the same extreme.
  EXPECT_EQ(summary.max_dead_offmodule_links, plan.offchip_links_per_chip);
  EXPECT_LE(summary.min_dead_offmodule_links, summary.max_dead_offmodule_links);
  EXPECT_GT(summary.worst_reachability, 0.0);
  EXPECT_LE(summary.worst_reachability, summary.best_reachability);
  EXPECT_LT(summary.best_reachability, 1.0);
  EXPECT_LT(summary.worst_chip, plan.num_chips);
}

// --- dead-link rendering ----------------------------------------------------

TEST(Render, DeadWiresAreDashedGray) {
  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(3));
  const Layout layout = plan.materialize();
  ASSERT_GT(layout.wires().size(), 0u);
  RenderOptions options;
  std::vector<bool> dead(layout.wires().size(), false);
  dead[0] = true;
  options.wire_dead = &dead;
  const std::string svg = render_svg(layout, options);
  EXPECT_NE(svg.find("stroke-dasharray=\"5 4\""), std::string::npos);
  EXPECT_NE(svg.find("#9e9e9e"), std::string::npos);
  // Without the overlay no wire is dashed.
  const std::string clean = render_svg(layout, {});
  EXPECT_EQ(clean.find("stroke-dasharray"), std::string::npos);
}

}  // namespace
}  // namespace bfly
