// bfly::obs time-series telemetry: the determinism contract and its oracles.
//
// The load-bearing claims under test:
//   1. Downsampling is a pure function of the cycle sequence — power-of-two
//      stride, thinning in place, never over budget.
//   2. A probed engine run is bitwise identical across thread counts and
//      equals the unprobed run's outcome exactly (observation changes
//      nothing it observes).
//   3. The JSON encoding round-trips bit-for-bit (checkpoint replay identity).
//   4. Little's law L = λW holds on a pristine steady-state run — the
//      queueing-law self-check a miscounting engine cannot pass.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "obs/timeseries.hpp"
#include "routing/routing.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"

namespace bfly::obs {
namespace {

TimeSeries make_series(u64 budget, std::vector<std::string> channels) {
  TimeSeries ts(budget);
  ts.reset_channels(std::move(channels));
  return ts;
}

// --- downsampling ------------------------------------------------------------

TEST(TimeSeriesTest, RetainsEveryCycleWhileUnderBudget) {
  TimeSeries ts = make_series(8, {"a"});
  for (u64 c = 0; c < 8; ++c) {
    ASSERT_TRUE(ts.want(c));
    const double v[] = {static_cast<double>(c)};
    ts.record(c, v);
  }
  EXPECT_EQ(ts.stride(), 1u);
  EXPECT_EQ(ts.num_samples(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ts.cycles()[i], i);
    EXPECT_EQ(ts.value(i, 0), static_cast<double>(i));
  }
}

TEST(TimeSeriesTest, StrideDoublesAndThinsInPlace) {
  TimeSeries ts = make_series(4, {"a"});
  for (u64 c = 0; c < 64; ++c) {
    if (!ts.want(c)) continue;
    const double v[] = {static_cast<double>(c)};
    ts.record(c, v);
  }
  // 64 cycles into a 4-row budget: stride must have reached 16 and the
  // retained cycles are the consecutive multiples 0, 16, 32, 48.
  EXPECT_EQ(ts.stride(), 16u);
  ASSERT_EQ(ts.num_samples(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ts.cycles()[i], i * 16);
    EXPECT_EQ(ts.value(i, 0), static_cast<double>(i * 16));
  }
  // Samples never exceed the budget at any point, and stride stays a power
  // of two (want() relies on the & (stride-1) trick).
  EXPECT_LE(ts.num_samples(), ts.sample_budget());
  EXPECT_EQ(ts.stride() & (ts.stride() - 1), 0u);
}

TEST(TimeSeriesTest, SamplingIsAPureFunctionOfTheCycleSequence) {
  // Recording the same cycles through two differently-interleaved want()
  // checks yields identical stores — there is no hidden state besides the
  // cycle index.
  TimeSeries a = make_series(8, {"x", "y"});
  TimeSeries b = make_series(8, {"x", "y"});
  for (u64 c = 0; c < 200; ++c) {
    const double v[] = {static_cast<double>(c), static_cast<double>(c) * 0.5};
    if (a.want(c)) a.record(c, v);
  }
  for (u64 c = 0; c < 200; ++c) {
    const double v[] = {static_cast<double>(c), static_cast<double>(c) * 0.5};
    if (b.want(c)) b.record(c, v);
    // record() on a non-sampling cycle is an ignored no-op, not a skew.
    if (!b.want(c)) b.record(c, v);
  }
  EXPECT_TRUE(a == b);
}

TEST(TimeSeriesTest, RejectsMisshapenRecords) {
  TimeSeries ts = make_series(4, {"a", "b"});
  const double one[] = {1.0};
  EXPECT_THROW(ts.record(0, one), InvalidArgument);
  const double two[] = {1.0, 2.0};
  ts.record(0, two);
  EXPECT_THROW(ts.record(0, two), InternalError);  // cycles must increase
}

// --- JSON round-trip ---------------------------------------------------------

TEST(TimeSeriesTest, JsonRoundTripIsBitwiseExact) {
  TimeSeries ts = make_series(8, {"in_flight", "delivered"});
  for (u64 c = 0; c < 40; ++c) {
    if (!ts.want(c)) continue;
    // Awkward doubles on purpose: 1/3 and a subnormal-ish scale exercise the
    // %.17g round-trip, not just integers.
    const double v[] = {static_cast<double>(c) / 3.0, std::ldexp(1.0, -40) * static_cast<double>(c)};
    ts.record(c, v);
  }
  const TimeSeries back = TimeSeries::from_json(ts.to_json());
  EXPECT_TRUE(ts == back);
  // And the encoding itself is stable: encode(decode(encode(x))) == encode(x).
  EXPECT_EQ(ts.to_json().dump(), back.to_json().dump());
}

TEST(TimeSeriesTest, FromJsonValidatesShape) {
  TimeSeries ts = make_series(4, {"a"});
  const double v[] = {1.0};
  ts.record(0, v);

  json::Value good = ts.to_json();
  EXPECT_NO_THROW(TimeSeries::from_json(good));

  // A row with the wrong arity must be rejected, not silently padded.
  json::Value bad_rows = good;
  bad_rows.set("samples", json::Value::parse("[[1.0, 2.0]]"));
  EXPECT_THROW(TimeSeries::from_json(bad_rows), InvalidArgument);

  json::Value not_object = json::Value::parse("[]");
  EXPECT_THROW(TimeSeries::from_json(not_object), InvalidArgument);
}

// --- steady state and Little's law ------------------------------------------

TEST(SteadyStateTest, FindsOnsetAfterARamp) {
  // 8 ramp samples then 56 flat ones: onset must land at/after the ramp ends
  // and before the flat region's midpoint.
  TimeSeries ts = make_series(64, {"q"});
  for (u64 c = 0; c < 64; ++c) {
    const double value = c < 8 ? static_cast<double>(c) * 10.0 : 80.0;
    const double v[] = {value};
    ts.record(c, v);
  }
  const SteadyState s = steady_state_onset(ts, "q");
  ASSERT_TRUE(s.found);
  EXPECT_GE(s.cycle, 1u);
  EXPECT_LE(s.cycle, 36u);
}

TEST(SteadyStateTest, NeedsEnoughSamplesAndTheChannel) {
  TimeSeries ts = make_series(64, {"q"});
  for (u64 c = 0; c < 4; ++c) {
    const double v[] = {1.0};
    ts.record(c, v);
  }
  EXPECT_FALSE(steady_state_onset(ts, "q").found);   // < 2 * window samples
  EXPECT_FALSE(steady_state_onset(ts, "zz").found);  // unknown channel
}

TEST(LittlesLawTest, NotApplicableWithoutTheChannels) {
  TimeSeries ts = make_series(16, {"q"});
  for (u64 c = 0; c < 16; ++c) {
    const double v[] = {1.0};
    ts.record(c, v);
  }
  EXPECT_FALSE(littles_law_check(ts).applicable);
}

TEST(LittlesLawTest, PassesOnASyntheticExactQueue) {
  // A synthetic M-ish system constructed to satisfy L = λW exactly:
  // λ = 2 packets/cycle, W = 5 cycles, L = 10 in flight, constant.
  TimeSeries ts = make_series(64, {std::string(kChannelInFlight), std::string(kChannelDelivered),
                                   std::string(kChannelLatencySum)});
  for (u64 c = 0; c < 64; ++c) {
    const double delivered = static_cast<double>(c) * 2.0;
    const double v[] = {10.0, delivered, delivered * 5.0};
    ts.record(c, v);
  }
  const LittlesLawCheck check = littles_law_check(ts);
  ASSERT_TRUE(check.applicable);
  EXPECT_TRUE(check.pass);
  EXPECT_NEAR(check.l, 10.0, 1e-9);
  EXPECT_NEAR(check.lambda, 2.0, 1e-9);
  EXPECT_NEAR(check.w, 5.0, 1e-9);
  EXPECT_NEAR(check.rel_error, 0.0, 1e-9);
}

TEST(LittlesLawTest, FailsWhenOccupancyIsInconsistent) {
  // Same deliveries and latencies, but the in-flight channel claims 3x the
  // consistent occupancy — the check must reject it.
  TimeSeries ts = make_series(64, {std::string(kChannelInFlight), std::string(kChannelDelivered),
                                   std::string(kChannelLatencySum)});
  for (u64 c = 0; c < 64; ++c) {
    const double delivered = static_cast<double>(c) * 2.0;
    const double v[] = {30.0, delivered, delivered * 5.0};
    ts.record(c, v);
  }
  const LittlesLawCheck check = littles_law_check(ts);
  ASSERT_TRUE(check.applicable);
  EXPECT_FALSE(check.pass);
  EXPECT_GT(check.rel_error, 0.5);
}

// --- occupancy frames --------------------------------------------------------

TEST(OccupancyFramesTest, ThinsLikeTimeSeries) {
  OccupancyFrames frames(4);
  const std::vector<double> occ = {0.1, 0.2, 0.3};
  for (u64 c = 0; c < 64; ++c) {
    if (frames.want(c)) frames.record(c, occ);
  }
  EXPECT_EQ(frames.stride(), 16u);
  ASSERT_EQ(frames.num_frames(), 4u);
  EXPECT_EQ(frames.num_links(), 3u);
  for (std::size_t f = 0; f < frames.num_frames(); ++f) {
    EXPECT_EQ(frames.cycles()[f], f * 16);
    ASSERT_EQ(frames.frame(f).size(), 3u);
    EXPECT_EQ(frames.frame(f)[1], 0.2);
  }
}

// --- engine integration ------------------------------------------------------
//
// These run the real engines.

SweepPoint probe_point(u64 telemetry_budget, const FaultSet* faults = nullptr) {
  SweepPoint p;
  p.n = 8;
  p.offered_load = 0.5;
  p.cycles = 3000;
  p.seed = 42;
  p.warmup_cycles = 500;
  p.telemetry_budget = telemetry_budget;
  p.faults = faults;
  return p;
}

TEST(EngineTelemetryTest, ProbeLeavesTheOutcomeBitUnchanged) {
  const SweepPoint plain = probe_point(0);
  const SaturationPoint without =
      simulate_saturation(plain.n, plain.offered_load, plain.cycles, plain.seed,
                          plain.warmup_cycles);
  TimeSeries ts(128);
  OccupancyFrames frames(8);
  const SaturationPoint with =
      simulate_saturation(plain.n, plain.offered_load, plain.cycles, plain.seed,
                          plain.warmup_cycles, 0, nullptr, &ts, &frames);
  EXPECT_EQ(without.delivered, with.delivered);
  EXPECT_EQ(without.max_queue, with.max_queue);
  EXPECT_DOUBLE_EQ(without.throughput, with.throughput);
  EXPECT_DOUBLE_EQ(without.avg_latency, with.avg_latency);
  EXPECT_FALSE(ts.empty());
  EXPECT_FALSE(frames.empty());
  EXPECT_GT(frames.num_links(), 0u);
}

TEST(EngineTelemetryTest, SamplesAreIdenticalAcrossThreadCounts) {
  const std::vector<SweepPoint> points = {probe_point(64), probe_point(128)};
  const std::vector<SweepOutcome> serial = saturation_sweep(points, 1);
  const std::vector<SweepOutcome> parallel = saturation_sweep(points, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].timeseries == parallel[i].timeseries) << "point " << i;
  }
  EXPECT_FALSE(serial[0].timeseries.empty());
  EXPECT_FALSE(serial[1].timeseries.empty());
}

TEST(EngineTelemetryTest, FaultyEngineWithEmptyFaultSetMatchesItsOwnReplay) {
  // The faulty engine's probe must be wired identically: an empty fault set
  // run twice yields the same samples (determinism), and the per-stage
  // channel layout matches the pristine engine's.
  const FaultSet none(8);
  const SweepPoint p = probe_point(64, &none);
  const std::vector<SweepPoint> points = {p};
  const std::vector<SweepOutcome> a = saturation_sweep(points, 1);
  const std::vector<SweepOutcome> b = saturation_sweep(points, 2);
  EXPECT_TRUE(a[0].timeseries == b[0].timeseries);
  ASSERT_FALSE(a[0].timeseries.empty());
  const std::vector<SweepPoint> pristine_points = {probe_point(64)};
  const std::vector<SweepOutcome> pristine = saturation_sweep(pristine_points, 1);
  EXPECT_EQ(a[0].timeseries.channels(), pristine[0].timeseries.channels());
}

TEST(EngineTelemetryTest, LittlesLawHoldsOnAPristineSteadyRun) {
  // The acceptance oracle: a B_8 run at load 0.5 (well below saturation)
  // must satisfy L ≈ λW over its steady window.
  SweepPoint p = probe_point(128);
  p.cycles = 6000;
  const std::vector<SweepPoint> points = {p};
  const std::vector<SweepOutcome> out = saturation_sweep(points, 0);
  ASSERT_FALSE(out[0].timeseries.empty());
  const LittlesLawCheck check = littles_law_check(out[0].timeseries);
  ASSERT_TRUE(check.applicable);
  EXPECT_TRUE(check.pass) << "L=" << check.l << " lambda=" << check.lambda
                          << " W=" << check.w << " rel_error=" << check.rel_error;
}

TEST(EngineTelemetryTest, ChannelLayoutMatchesTheDocumentedScheme) {
  const std::vector<SweepPoint> points = {probe_point(32)};
  const std::vector<SweepOutcome> out = saturation_sweep(points, 1);
  const TimeSeries& ts = out[0].timeseries;
  ASSERT_FALSE(ts.empty());
  // stage0..stage{n-1} first, then the aggregate channels, all resolvable.
  for (int s = 0; s < points[0].n; ++s) {
    EXPECT_EQ(ts.channel_index("stage" + std::to_string(s)), static_cast<std::size_t>(s));
  }
  EXPECT_NE(ts.channel_index(kChannelInFlight), TimeSeries::npos);
  EXPECT_NE(ts.channel_index(kChannelInjected), TimeSeries::npos);
  EXPECT_NE(ts.channel_index(kChannelDelivered), TimeSeries::npos);
  EXPECT_NE(ts.channel_index(kChannelDropped), TimeSeries::npos);
  EXPECT_NE(ts.channel_index(kChannelLatencySum), TimeSeries::npos);
  EXPECT_NE(ts.channel_index(kChannelArenaFill), TimeSeries::npos);
  // Cumulative channels are monotone; arena fill stays a fraction.
  const std::size_t delivered = ts.channel_index(kChannelDelivered);
  const std::size_t fill = ts.channel_index(kChannelArenaFill);
  for (std::size_t i = 1; i < ts.num_samples(); ++i) {
    EXPECT_GE(ts.value(i, delivered), ts.value(i - 1, delivered));
  }
  for (std::size_t i = 0; i < ts.num_samples(); ++i) {
    EXPECT_GE(ts.value(i, fill), 0.0);
    EXPECT_LE(ts.value(i, fill), 1.0);
  }
}

}  // namespace
}  // namespace bfly::obs
