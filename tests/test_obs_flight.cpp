// bfly::obs packet flight recorder: the determinism contract and the
// analytics built on the recorded journeys.
//
// The load-bearing claims under test:
//   1. Sampling is a pure function of packet identity — SplitMix64(seed ^ id)
//      under a fixed threshold, first-budget-passers — so the admitted set is
//      bitwise identical across sweep thread counts and between the pristine
//      engine and the faulty engine on an empty FaultSet.
//   2. The latency decomposition queue_wait + transit + detour == latency
//      holds *exactly* (u64 arithmetic) on every delivered trace, pristine or
//      degraded, and detour is n hops per wrap.
//   3. Wire-length path attribution through layout geometry matches a
//      hand-computed B_3 path.
//   4. The JSON encoding round-trips bit-for-bit (checkpoint replay identity)
//      and the decoder rejects malformed documents instead of repairing them.
//   5. Observation changes nothing it observes: engine outcomes are
//      bit-unchanged by an attached recorder.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "layout/butterfly_layout.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "routing/routing.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"

namespace bfly::obs {
namespace {

// --- sampling ----------------------------------------------------------------

TEST(FlightRecorderTest, DisabledRecorderAdmitsNothing) {
  FlightRecorder rec;  // default: budget 0
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.on_packet(0, 1, 2), 0u);
  EXPECT_EQ(rec.packets_seen(), 1u);
  EXPECT_TRUE(rec.empty());
}

TEST(FlightRecorderTest, ZeroExpectedPacketsAdmitsEveryPacketUntilBudget) {
  FlightRecorder rec(/*sample_budget=*/3, /*seed=*/7, /*expected_packets=*/0);
  EXPECT_EQ(rec.threshold(), ~u64{0});
  for (u64 id = 0; id < 10; ++id) rec.on_packet(id, id, id);
  ASSERT_EQ(rec.traces().size(), 3u);
  EXPECT_EQ(rec.packets_seen(), 10u);
  // First-N-passers with an all-pass threshold: ids 0, 1, 2 exactly.
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(rec.traces()[i].packet_id, i);
}

TEST(FlightRecorderTest, SamplingIsAPureFunctionOfPacketIdentity) {
  // Same (budget, seed, expected) fed the same creation stream: identical
  // admitted sets, no hidden state.  A short prefix of the stream admits a
  // prefix of the full run's traces — the checkpoint kill/resume shape.
  const u64 kSeed = 0x5eedu;
  FlightRecorder full(8, kSeed, 10'000);
  FlightRecorder half(8, kSeed, 10'000);
  for (u64 id = 0; id < 4000; ++id) full.on_packet(id / 7, id % 13, id % 11);
  for (u64 id = 0; id < 2000; ++id) half.on_packet(id / 7, id % 13, id % 11);
  ASSERT_LE(half.traces().size(), full.traces().size());
  for (std::size_t i = 0; i < half.traces().size(); ++i) {
    EXPECT_EQ(half.traces()[i].packet_id, full.traces()[i].packet_id);
    EXPECT_EQ(half.traces()[i].src, full.traces()[i].src);
    EXPECT_EQ(half.traces()[i].dst, full.traces()[i].dst);
    EXPECT_EQ(half.traces()[i].injected_at, full.traces()[i].injected_at);
  }
  // The hash gate actually thins: nowhere near all 4000 packets admitted,
  // but the budget still fills (threshold targets ~4x the budget).
  EXPECT_EQ(full.traces().size(), full.sample_budget());
}

TEST(FlightRecorderTest, HooksRejectMisuse) {
  FlightRecorder rec(2, 1, 0);
  const u64 h = rec.on_packet(10, 0, 3);
  ASSERT_NE(h, 0u);
  EXPECT_THROW(rec.on_hop(99, 10, 0, FlightEvent::kInject), InternalError);
  rec.on_hop(h, 10, 0, FlightEvent::kInject);
  // Hop cycles must strictly increase along a trace.
  EXPECT_THROW(rec.on_hop(h, 10, 1, FlightEvent::kAdvance), InternalError);
  rec.on_hop(h, 12, 1, FlightEvent::kAdvance);
  // Termination must follow the last hop, and is final.
  EXPECT_THROW(rec.on_delivered(h, 12), InternalError);
  rec.on_delivered(h, 13);
  EXPECT_THROW(rec.on_hop(h, 14, 2, FlightEvent::kAdvance), InternalError);
  EXPECT_THROW(rec.on_dropped(h, 15, kFlightDropQueueFull), InternalError);
}

// --- decomposition and blame (synthetic traces) ------------------------------

FlightTrace delivered_trace(u64 injected_at, std::vector<FlightHop> hops, u64 end_cycle) {
  FlightTrace t;
  t.packet_id = 0;
  t.src = 0;
  t.dst = 7;
  t.injected_at = injected_at;
  t.hops = std::move(hops);
  t.outcome = FlightOutcome::kDelivered;
  t.end_cycle = end_cycle;
  return t;
}

TEST(FlightDecompositionTest, HandCheckedSumsExactly) {
  // n = 3, injected at cycle 0; waits 1, 0, 1 around the three hops; delivered
  // at cycle 5.  latency = 6 = queue_wait 2 + transit 4 + detour 0.
  const FlightTrace t = delivered_trace(
      0,
      {{0, 1, FlightEvent::kInject}, {2, 19, FlightEvent::kAdvance}, {3, 39, FlightEvent::kAdvance}},
      5);
  const FlightDecomposition d = decompose_flight(t, 3);
  EXPECT_EQ(d.latency, 6u);
  EXPECT_EQ(d.queue_wait, 2u);
  EXPECT_EQ(d.transit, 4u);
  EXPECT_EQ(d.detour, 0u);
  EXPECT_EQ(d.queue_wait + d.transit + d.detour, d.latency);
  const std::vector<u64> waits = flight_hop_waits(t);
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[0], 1u);
  EXPECT_EQ(waits[1], 0u);
  EXPECT_EQ(waits[2], 1u);
}

TEST(FlightDecompositionTest, WrappedTraceChargesNHopsPerWrap) {
  // Two passes through a dimension-2 fabric (one wrap): 4 hops, zero waits.
  // latency = 5 = transit 3 + detour 2.
  const FlightTrace t = delivered_trace(0,
                                        {{0, 0, FlightEvent::kInject},
                                         {1, 4, FlightEvent::kAdvance},
                                         {2, 1, FlightEvent::kWrap},
                                         {3, 5, FlightEvent::kMisroute}},
                                        4);
  const FlightDecomposition d = decompose_flight(t, 2);
  EXPECT_EQ(d.latency, 5u);
  EXPECT_EQ(d.queue_wait, 0u);
  EXPECT_EQ(d.transit, 3u);
  EXPECT_EQ(d.detour, 2u);
}

TEST(FlightDecompositionTest, RejectsNonDeliveredAndPartialPasses) {
  FlightTrace in_flight = delivered_trace(0, {{0, 0, FlightEvent::kInject}}, 0);
  in_flight.outcome = FlightOutcome::kInFlight;
  EXPECT_THROW(decompose_flight(in_flight, 1), InvalidArgument);
  // 2 hops in a dimension-3 fabric is not a whole number of passes.
  const FlightTrace partial = delivered_trace(
      0, {{0, 0, FlightEvent::kInject}, {1, 16, FlightEvent::kAdvance}}, 2);
  EXPECT_THROW(decompose_flight(partial, 3), InvalidArgument);
}

TEST(FlightBlameTest, AggregatesWaitsByLinkAndStage) {
  // Two traces in a dimension-2, 4-row fabric (links 0..15; stage = link/8).
  // Link 3 is visited twice with waits 2 and 6; link 9 once with wait 1.
  const FlightTrace a = delivered_trace(
      0, {{0, 3, FlightEvent::kInject}, {3, 9, FlightEvent::kAdvance}}, 5);
  const FlightTrace b = delivered_trace(
      10, {{10, 3, FlightEvent::kInject}, {17, 8, FlightEvent::kAdvance}}, 18);
  const std::vector<FlightTrace> traces = {a, b};
  const FlightBlame blame = flight_blame(traces, 2, 4);
  ASSERT_EQ(blame.links.size(), 3u);
  // Heaviest wait_sum first: link 3 (2 + 6 = 8), then link 9 (1), then 8 (0).
  EXPECT_EQ(blame.links[0].link, 3u);
  EXPECT_EQ(blame.links[0].stage, 0);
  EXPECT_EQ(blame.links[0].visits, 2u);
  EXPECT_EQ(blame.links[0].wait_sum, 8u);
  EXPECT_EQ(blame.links[0].wait_max, 6u);
  EXPECT_EQ(blame.links[0].wait_p99, 6u);
  EXPECT_EQ(blame.links[1].link, 9u);
  EXPECT_EQ(blame.links[1].stage, 1);
  ASSERT_EQ(blame.stage_wait_sum.size(), 2u);
  EXPECT_EQ(blame.stage_wait_sum[0], 8u);
  EXPECT_EQ(blame.stage_wait_sum[1], 1u);
  EXPECT_EQ(blame.stage_visits[0], 2u);
  EXPECT_EQ(blame.stage_visits[1], 2u);
}

// --- wire-length path attribution -------------------------------------------

TEST(FlightDistanceTest, MatchesHandComputedB3Path) {
  // The all-cross bit-fixing path 0 -> 7 in B_3 visits, by hand:
  //   stage 0, row 0, cross -> link (0*8 + 0)*2 + 1 = 1
  //   stage 1, row 1, cross -> link (1*8 + 1)*2 + 1 = 19
  //   stage 2, row 3, cross -> link (2*8 + 3)*2 + 1 = 39
  const int n = 3;
  std::vector<u64> path;
  const RouteResult route = route_packet(n, FaultSet(n), {}, 0, 7, &path);
  ASSERT_TRUE(route.delivered);
  ASSERT_EQ(path, (std::vector<u64>{1, 19, 39}));

  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n));
  const std::vector<i64> lengths = link_wire_lengths(plan);
  const SwapButterfly& net = plan.network();
  ASSERT_EQ(lengths.size(), static_cast<std::size_t>(net.num_links()));
  for (const i64 len : lengths) EXPECT_GT(len, 0);

  // Independent per-link lookup: key the layout's wires by their endpoint
  // node ids and resolve each hop through rho's inverse, bypassing
  // link_wire_lengths' index arithmetic entirely.
  const Layout layout = plan.materialize();
  std::map<std::pair<u64, u64>, i64> by_nodes;
  for (const Wire& wire : layout.wires()) {
    if (!wire.from_node || !wire.to_node) continue;
    by_nodes[{*wire.from_node, *wire.to_node}] = wire.length();
  }
  ASSERT_EQ(by_nodes.size(), static_cast<std::size_t>(net.num_links()));
  const u64 rows = net.rows();
  const auto physical_row = [&](int stage, u64 butterfly_row) {
    for (u64 u = 0; u < rows; ++u) {
      if (net.rho(stage, u) == butterfly_row) return u;
    }
    ADD_FAILURE() << "no physical row maps to butterfly row " << butterfly_row;
    return u64{0};
  };
  const u64 butterfly_rows[] = {0, 1, 3, 7};  // 0 -> 7, crossing every stage
  i64 expected = 0;
  for (int s = 0; s < n; ++s) {
    const u64 from = static_cast<u64>(s) * rows + physical_row(s, butterfly_rows[s]);
    const u64 to = static_cast<u64>(s + 1) * rows + physical_row(s + 1, butterfly_rows[s + 1]);
    ASSERT_TRUE(by_nodes.count({from, to})) << "stage " << s;
    expected += by_nodes[{from, to}];
  }

  FlightTrace t = delivered_trace(
      0, {{0, 1, FlightEvent::kInject}, {1, 19, FlightEvent::kAdvance}, {2, 39, FlightEvent::kAdvance}},
      3);
  EXPECT_EQ(flight_distance(t, lengths), expected);
  // Out-of-table links are rejected, not read out of bounds.
  t.hops[0].link = static_cast<u64>(lengths.size());
  EXPECT_THROW(flight_distance(t, lengths), InvalidArgument);
}

TEST(FlightDistanceTest, TotalAttachedWireLengthIsConserved) {
  // Every layout wire lands in exactly one link slot: the per-link table and
  // the raw wire list agree on the total routed length.
  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(4));
  const std::vector<i64> lengths = link_wire_lengths(plan);
  i64 table_total = 0;
  for (const i64 len : lengths) table_total += len;
  i64 wire_total = 0;
  const Layout layout = plan.materialize();
  for (const Wire& wire : layout.wires()) {
    if (wire.from_node && wire.to_node) wire_total += wire.length();
  }
  EXPECT_EQ(table_total, wire_total);
}

// --- JSON round-trip ---------------------------------------------------------

FlightRecorder populated_recorder() {
  FlightRecorder rec(4, 0xdeadbeefcafe1234u, 0);
  const u64 a = rec.on_packet(0, 0, 5);
  rec.on_hop(a, 0, 1, FlightEvent::kInject);
  rec.on_hop(a, 2, 19, FlightEvent::kAdvance);
  rec.on_hop(a, 3, 39, FlightEvent::kMisroute);
  rec.on_delivered(a, 4);
  const u64 b = rec.on_packet(1, 3, 6);
  rec.on_hop(b, 1, 7, FlightEvent::kInject);
  rec.on_dropped(b, 5, kFlightDropQueueFull);
  rec.on_packet(2, 1, 1);  // admitted, left in flight
  return rec;
}

TEST(FlightJsonTest, RoundTripIsBitwiseExact) {
  const FlightRecorder rec = populated_recorder();
  const FlightRecorder back = FlightRecorder::from_json(rec.to_json());
  EXPECT_TRUE(rec == back);
  EXPECT_EQ(rec.to_json().dump(), back.to_json().dump());
  // The full-u64 fields survive: seed needs all 64 bits (> 2^53).
  EXPECT_EQ(back.seed(), 0xdeadbeefcafe1234u);
}

/// `good` with its first trace replaced (json::Value has no mutable at(), so
/// malformed documents are rebuilt rather than edited in place).
json::Value with_first_trace(const json::Value& good, json::Value trace) {
  json::Value bad = good;
  json::Value traces = json::Value::array();
  traces.push_back(std::move(trace));
  for (std::size_t i = 1; i < good.at("traces").size(); ++i) {
    traces.push_back(good.at("traces").at(i));
  }
  bad.set("traces", std::move(traces));
  return bad;
}

/// The first trace of `good` with its first hop replaced by `hop`.
json::Value with_first_hop(const json::Value& good, const char* hop) {
  json::Value trace = good.at("traces").at(std::size_t{0});
  json::Value hops = json::Value::array();
  hops.push_back(json::Value::parse(hop));
  for (std::size_t i = 1; i < trace.at("hops").size(); ++i) {
    hops.push_back(trace.at("hops").at(i));
  }
  trace.set("hops", std::move(hops));
  return with_first_trace(good, std::move(trace));
}

TEST(FlightJsonTest, RejectsMalformedDocuments) {
  const json::Value good = populated_recorder().to_json();
  EXPECT_NO_THROW(FlightRecorder::from_json(good));

  json::Value bad = good;
  bad.set("v", json::Value::number(2));
  EXPECT_THROW(FlightRecorder::from_json(bad), InvalidArgument);

  bad = good;
  bad.set("seed", json::Value::string("not-hex"));
  EXPECT_THROW(FlightRecorder::from_json(bad), InvalidArgument);

  bad = good;
  bad.set("budget", json::Value::number(1));  // 3 traces > budget 1
  EXPECT_THROW(FlightRecorder::from_json(bad), InvalidArgument);

  // Outcome code out of range.
  json::Value trace = good.at("traces").at(std::size_t{0});
  trace.set("outcome", json::Value::number(3));
  EXPECT_THROW(FlightRecorder::from_json(with_first_trace(good, std::move(trace))),
               InvalidArgument);

  // Event code out of range; hop cycles that fail to increase (the first
  // trace's second hop is at cycle 2, so a first hop at cycle 2 collides).
  EXPECT_THROW(FlightRecorder::from_json(with_first_hop(good, "[0, 1, 4]")), InvalidArgument);
  EXPECT_THROW(FlightRecorder::from_json(with_first_hop(good, "[2, 1, 0]")), InvalidArgument);

  EXPECT_THROW(FlightRecorder::from_json(json::Value::parse("[]")), InvalidArgument);
}

TEST(FlightJsonTest, ChromeTraceIsValidJson) {
  const FlightRecorder rec = populated_recorder();
  const std::string trace = flight_chrome_trace_json(rec.traces(), /*rows=*/8);
  const json::Value doc = json::Value::parse(trace);
  ASSERT_TRUE(doc.is_object());
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // Trace a: 3 slices + deliver; trace b: 1 slice + drop; trace c (in
  // flight): nothing — its only hop has no known departure.
  EXPECT_EQ(events.size(), 6u);
  EXPECT_EQ(events.at(std::size_t{0}).at("ph").as_string(), "X");
  EXPECT_EQ(events.at(std::size_t{3}).at("ph").as_string(), "i");
}

// --- engine integration ------------------------------------------------------
//
// These run the real engines.

SweepPoint flight_point(u64 flight_budget, const FaultSet* faults = nullptr) {
  SweepPoint p;
  p.n = 6;
  p.offered_load = 0.5;
  p.cycles = 2000;
  p.seed = 42;
  p.warmup_cycles = 200;
  p.flight_budget = flight_budget;
  p.faults = faults;
  return p;
}

TEST(EngineFlightTest, RecorderLeavesTheOutcomeBitUnchanged) {
  const SweepPoint p = flight_point(0);
  const SaturationPoint without =
      simulate_saturation(p.n, p.offered_load, p.cycles, p.seed, p.warmup_cycles);
  FlightRecorder rec(64, p.seed, 0);
  const SaturationPoint with = simulate_saturation(p.n, p.offered_load, p.cycles, p.seed,
                                                   p.warmup_cycles, 0, nullptr, nullptr,
                                                   nullptr, &rec);
  EXPECT_EQ(without.delivered, with.delivered);
  EXPECT_EQ(without.max_queue, with.max_queue);
  EXPECT_DOUBLE_EQ(without.throughput, with.throughput);
  EXPECT_DOUBLE_EQ(without.avg_latency, with.avg_latency);
  EXPECT_FALSE(rec.empty());
}

TEST(EngineFlightTest, SampledSetIsIdenticalAcrossThreadCounts) {
  const FaultSet faults = FaultSet::random_links(6, 0.03, 9);
  const std::vector<SweepPoint> points = {flight_point(32), flight_point(32, &faults)};
  const std::vector<SweepOutcome> serial = saturation_sweep(points, 1);
  const std::vector<SweepOutcome> two = saturation_sweep(points, 2);
  const std::vector<SweepOutcome> eight = saturation_sweep(points, 8);
  ASSERT_EQ(serial.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(serial[i].flight == two[i].flight) << "point " << i;
    EXPECT_TRUE(serial[i].flight == eight[i].flight) << "point " << i;
  }
  EXPECT_FALSE(serial[0].flight.empty());
  EXPECT_FALSE(serial[1].flight.empty());
}

TEST(EngineFlightTest, FaultyEngineOnEmptyFaultSetMatchesPristineBitwise) {
  // The strongest cross-engine claim: an empty FaultSet run records the
  // *same traces*, hop for hop, as the pristine engine — the creation
  // streams, sampling decisions, and queue dynamics all coincide.
  const SweepPoint p = flight_point(32);
  FlightRecorder pristine = make_flight_recorder(p);
  simulate_saturation(p.n, p.offered_load, p.cycles, p.seed, p.warmup_cycles, 0, nullptr,
                      nullptr, nullptr, &pristine);
  const FaultSet none(p.n);
  FlightRecorder faulty = make_flight_recorder(p);
  simulate_saturation_faulty(p.n, p.offered_load, p.cycles, p.seed, none, {},
                             p.warmup_cycles, 0, nullptr, nullptr, nullptr, &faulty);
  EXPECT_TRUE(pristine == faulty);
  ASSERT_FALSE(pristine.empty());
}

TEST(EngineFlightTest, EveryDeliveredTraceDecomposesExactly) {
  const FaultSet faults = FaultSet::random_links(6, 0.03, 9);
  const std::vector<SweepPoint> points = {flight_point(48), flight_point(48, &faults)};
  const std::vector<SweepOutcome> out = saturation_sweep(points, 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const FlightRecorder& rec = out[i].flight;
    ASSERT_FALSE(rec.empty()) << "point " << i;
    u64 delivered = 0;
    for (const FlightTrace& t : rec.traces()) {
      if (t.outcome == FlightOutcome::kDelivered) {
        ++delivered;
        const FlightDecomposition d = decompose_flight(t, points[i].n);
        EXPECT_EQ(d.queue_wait + d.transit + d.detour, d.latency);
        EXPECT_EQ(d.transit, static_cast<u64>(points[i].n) + 1);
        // Detour is exactly n hops per recorded wrap.
        u64 wraps = 0;
        for (const FlightHop& h : t.hops) {
          if (h.event == FlightEvent::kWrap) ++wraps;
        }
        EXPECT_EQ(d.detour, wraps * static_cast<u64>(points[i].n));
      } else if (t.outcome == FlightOutcome::kDropped) {
        EXPECT_LE(t.drop_reason, kFlightDropQueueFull);
      }
    }
    EXPECT_GT(delivered, 0u) << "point " << i;
  }
  // The pristine engine never misroutes or wraps.
  for (const FlightTrace& t : out[0].flight.traces()) {
    for (const FlightHop& h : t.hops) {
      EXPECT_TRUE(h.event == FlightEvent::kInject || h.event == FlightEvent::kAdvance);
    }
  }
}

TEST(EngineFlightTest, RecordedStateSurvivesTheJsonRoundTrip) {
  // The checkpoint-journal identity on real engine output, not synthetic
  // traces: decode(encode(x)) == x bit for bit.
  const std::vector<SweepPoint> points = {flight_point(32)};
  const std::vector<SweepOutcome> out = saturation_sweep(points, 1);
  ASSERT_FALSE(out[0].flight.empty());
  const FlightRecorder back = FlightRecorder::from_json(out[0].flight.to_json());
  EXPECT_TRUE(out[0].flight == back);
  EXPECT_EQ(out[0].flight.to_json().dump(), back.to_json().dump());
}

}  // namespace
}  // namespace bfly::obs
