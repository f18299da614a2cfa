// Run-report analytics (obs/diff.hpp): report validation, delta computation,
// threshold classification, percentile estimation, and the JSON parser edge
// cases the analytics path depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/diff.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/check.hpp"

namespace bfly::obs {
namespace {

// --- fixtures ----------------------------------------------------------------

/// A minimal but complete schema-v1 report with one of everything.
std::string report_text(double counter, double gauge, double total_us,
                        const std::string& histogram_counts = "[2, 3, 5, 0]",
                        const std::string& histogram_count = "10",
                        const std::string& config = R"({"n": 6})") {
  std::ostringstream out;
  out << R"({"schema_version": 1, "name": "demo", "run_id": "abc123", )"
      << R"("git_describe": "v1-test", "config": )" << config << R"(, "metrics": {)"
      << R"("counters": {"routing.delivered": )" << counter << R"(}, )"
      << R"("gauges": {"routing.throughput": )" << gauge << R"(}, )"
      << R"("histograms": {"latency": {"bounds": [1, 2, 4], "counts": )" << histogram_counts
      << R"(, "count": )" << histogram_count << R"(, "sum": 20}}}, )"
      << R"("spans": [{"name": "phase", "count": 3, "total_us": )" << total_us
      << R"(, "max_us": 9.5}], "artifact_stats": {"area": 4096, "nested": {"depth": 2}, )"
      << R"("tags": ["x"], "label": "not-a-number"}})";
  return out.str();
}

RunReport make_report(double counter, double gauge, double total_us) {
  return RunReport::parse(report_text(counter, gauge, total_us));
}

// --- RunReport parsing / validation ------------------------------------------

TEST(RunReportTest, ParsesWellFormedReport) {
  const RunReport r = make_report(100, 0.5, 12.5);
  EXPECT_EQ(r.name, "demo");
  EXPECT_EQ(r.run_id, "abc123");
  EXPECT_EQ(r.git_describe, "v1-test");
}

TEST(RunReportTest, ParsesRealReportWriterOutput) {
  // The analytics layer must accept exactly what obs/report.cpp emits.
  // Registry handles are driven directly (not via the get_* helpers), so the
  // round trip needs no installed registry.
  Registry registry;
  registry.counter("work.items")->add(42);
  Histogram* h = registry.histogram("work.size", Histogram::linear_bounds(1, 1, 8));
  h->observe(3.0);
  h->observe(5.0);
  ReportOptions options;
  options.name = "roundtrip";
  options.artifact_stats.set("area", json::Value::number(7));
  std::ostringstream line;
  write_report_line(line, registry, options);

  const RunReport r = RunReport::parse(line.str());
  EXPECT_EQ(r.name, "roundtrip");
  EXPECT_EQ(metric_value(r, "counters.work.items"), 42.0);
  EXPECT_EQ(metric_value(r, "histograms.work.size.count"), 2.0);
  EXPECT_EQ(metric_value(r, "artifact_stats.area"), 7.0);
}

TEST(RunReportTest, RejectsWrongSchemaVersion) {
  std::string text = report_text(1, 1, 1);
  text.replace(text.find("\"schema_version\": 1"), 19, "\"schema_version\": 3");
  EXPECT_THROW(RunReport::parse(text), InvalidArgument);
}

/// report_text() as a schema-v2 report with a "timeseries" block appended.
std::string report_text_v2(const std::string& timeseries) {
  std::string text = report_text(1, 1, 1);
  text.replace(text.find("\"schema_version\": 1"), 19, "\"schema_version\": 2");
  text.insert(text.rfind('}'), ", \"timeseries\": " + timeseries);
  return text;
}

TEST(RunReportTest, ParsesV2ReportWithTimeseriesBlock) {
  const RunReport r = RunReport::parse(report_text_v2(
      R"({"v": 1, "budget": 8, "stride": 2, "channels": ["in_flight", "delivered"],
          "cycles": [0, 2, 4], "samples": [[1, 0], [5, 2], [3, 6]]})"));
  EXPECT_EQ(metric_value(r, "timeseries.samples"), 3.0);
  EXPECT_EQ(metric_value(r, "timeseries.stride"), 2.0);
  EXPECT_EQ(metric_value(r, "timeseries.in_flight.mean"), 3.0);
  EXPECT_EQ(metric_value(r, "timeseries.in_flight.last"), 3.0);
  EXPECT_EQ(metric_value(r, "timeseries.delivered.last"), 6.0);
}

TEST(RunReportTest, V2WithoutTimeseriesBlockIsTolerated) {
  // obs::diff must tolerate the block's absence even at version 2.
  std::string text = report_text(1, 1, 1);
  text.replace(text.find("\"schema_version\": 1"), 19, "\"schema_version\": 2");
  const RunReport r = RunReport::parse(text);
  EXPECT_THROW(metric_value(r, "timeseries.samples"), InvalidArgument);
}

TEST(RunReportTest, RejectsMalformedTimeseriesBlock) {
  // Row width must match the channel count.
  EXPECT_THROW(RunReport::parse(report_text_v2(
                   R"({"v": 1, "budget": 8, "stride": 1, "channels": ["a", "b"],
                       "cycles": [0], "samples": [[1]]})")),
               InvalidArgument);
  // One sample row per cycle.
  EXPECT_THROW(RunReport::parse(report_text_v2(
                   R"({"v": 1, "budget": 8, "stride": 1, "channels": ["a"],
                       "cycles": [0, 1], "samples": [[1]]})")),
               InvalidArgument);
  EXPECT_THROW(RunReport::parse(report_text_v2("[1, 2]")), InvalidArgument);
}

TEST(RunReportTest, RejectsMissingTopLevelKey) {
  EXPECT_THROW(RunReport::parse(R"({"schema_version": 1, "name": "x"})"), InvalidArgument);
}

TEST(RunReportTest, RejectsNonObjectDocument) {
  EXPECT_THROW(RunReport::parse("[1, 2]"), InvalidArgument);
}

TEST(RunReportTest, RejectsHistogramWithWrongBucketArity) {
  // 3 bounds need 4 counts.
  EXPECT_THROW(RunReport::parse(report_text(1, 1, 1, "[2, 3, 5]", "10")), InvalidArgument);
}

TEST(RunReportTest, RejectsHistogramWhoseCountsDoNotSum) {
  EXPECT_THROW(RunReport::parse(report_text(1, 1, 1, "[2, 3, 5, 0]", "11")), InvalidArgument);
}

// --- status field ------------------------------------------------------------

/// report_text() with status/progress keys spliced in before "config".
std::string report_text_with_status(const std::string& status, int completed, int total) {
  std::string text = report_text(1, 1, 1);
  std::ostringstream keys;
  keys << R"("status": ")" << status << R"(", "points_completed": )" << completed
       << R"(, "points_total": )" << total << ", ";
  text.insert(text.find("\"config\""), keys.str());
  return text;
}

TEST(RunReportTest, MissingStatusParsesAsCompleteForBackCompat) {
  const RunReport r = make_report(1, 1, 1);
  EXPECT_EQ(r.status, "complete");
  EXPECT_TRUE(r.is_complete());
  EXPECT_EQ(r.points_completed, 0u);
  EXPECT_EQ(r.points_total, 0u);
}

TEST(RunReportTest, ParsesStatusAndProgressKeys) {
  const RunReport r = RunReport::parse(report_text_with_status("partial", 3, 5));
  EXPECT_EQ(r.status, "partial");
  EXPECT_FALSE(r.is_complete());
  EXPECT_EQ(r.points_completed, 3u);
  EXPECT_EQ(r.points_total, 5u);
  EXPECT_EQ(RunReport::parse(report_text_with_status("cancelled", 0, 5)).status, "cancelled");
  EXPECT_TRUE(RunReport::parse(report_text_with_status("complete", 5, 5)).is_complete());
}

TEST(RunReportTest, RejectsUnknownStatusValue) {
  EXPECT_THROW(RunReport::parse(report_text_with_status("exploded", 1, 2)), InvalidArgument);
}

TEST(DegradeTest, FailuresBecomeWarningsWithRetalliedCounts) {
  CheckResult result;
  result.rows.push_back({MetricDelta{"counters.a", 1, 2, 1, 1.0}, Severity::kFail});
  result.rows.push_back({MetricDelta{"counters.b", 1, 1, 0, 0.0}, Severity::kPass});
  result.rows.push_back({MetricDelta{"gauges.c", 1, 1.1, 0.1, 0.1}, Severity::kWarn});
  result.missing_in_b = {"counters.gone"};
  result.new_in_b = {"counters.fresh"};
  result.num_fail = 2;  // the fail row + the missing key
  result.num_warn = 2;  // the warn row + the new key
  const CheckResult degraded = degrade_failures_to_warnings(std::move(result));
  EXPECT_EQ(degraded.num_fail, 0);
  EXPECT_EQ(degraded.num_warn, 4);  // fail row + warn row + missing + new
  EXPECT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.rows[0].severity, Severity::kWarn);
  EXPECT_EQ(degraded.rows[1].severity, Severity::kPass);
  EXPECT_EQ(degraded.rows[2].severity, Severity::kWarn);
}

// --- load_report_lines -------------------------------------------------------

TEST(LoadReportLinesTest, SkipsTornAndCorruptLinesWithWarnings) {
  const std::string path = ::testing::TempDir() + "bfly_trajectory.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << report_text(1, 1, 1) << "\n";
    out << "\n";                    // blank: ignored silently
    out << "{\"torn\": tru" << "\n";  // corrupt: skipped with a warning
    out << report_text(2, 2, 2) << "\n";
    const std::string torn_tail = report_text(3, 3, 3);
    out << torn_tail.substr(0, torn_tail.size() / 2);  // crash-torn final line
  }
  std::ostringstream warnings;
  std::size_t skipped = 0;
  const std::vector<RunReport> reports = load_report_lines(path, &warnings, &skipped);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(skipped, 2u);
  // One summary warning for the whole file, naming the count and the first
  // offending line — never one line per skip.
  EXPECT_NE(warnings.str().find("skipped 2 torn lines"), std::string::npos) << warnings.str();
  EXPECT_NE(warnings.str().find("first at line 3"), std::string::npos) << warnings.str();
  EXPECT_EQ(metric_value(reports[1], "counters.routing.delivered"), 2.0);
  std::remove(path.c_str());
}

TEST(LoadReportLinesTest, ManyTornLinesEmitOneSummaryWarning) {
  const std::string path = ::testing::TempDir() + "bfly_flooded.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << report_text(1, 1, 1) << "\n";
    for (int i = 0; i < 500; ++i) out << "{\"torn\": " << i << "\n";  // all unparsable
  }
  std::ostringstream warnings;
  std::size_t skipped = 0;
  const std::vector<RunReport> reports = load_report_lines(path, &warnings, &skipped);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(skipped, 500u);
  // A corrupt journal must not flood the log: exactly one warning line.
  const std::string text = warnings.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  EXPECT_NE(text.find("skipped 500 torn lines"), std::string::npos) << text;
  EXPECT_NE(text.find("first at line 2"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(LoadReportLinesTest, AllCorruptFileReturnsEmptyNotThrow) {
  const std::string path = ::testing::TempDir() + "bfly_corrupt.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "garbage\nmore garbage\n";
  }
  std::size_t skipped = 0;
  EXPECT_TRUE(load_report_lines(path, nullptr, &skipped).empty());
  EXPECT_EQ(skipped, 2u);
  EXPECT_THROW(load_report_lines(path + ".does-not-exist"), InvalidArgument);
  std::remove(path.c_str());
}

// --- diff_reports ------------------------------------------------------------

TEST(DiffReportsTest, ComputesAbsoluteAndRelativeDeltas) {
  const ReportDiff diff = diff_reports(make_report(100, 0.5, 10.0), make_report(110, 0.25, 30.0));
  ASSERT_FALSE(diff.deltas.empty());

  const auto delta_for = [&](const std::string& key) -> const MetricDelta& {
    for (const MetricDelta& d : diff.deltas) {
      if (d.key == key) return d;
    }
    ADD_FAILURE() << "no delta for " << key;
    static MetricDelta none;
    return none;
  };
  const MetricDelta& counter = delta_for("counters.routing.delivered");
  EXPECT_EQ(counter.before, 100.0);
  EXPECT_EQ(counter.after, 110.0);
  EXPECT_EQ(counter.abs_delta, 10.0);
  EXPECT_NEAR(counter.rel_delta, 0.10, 1e-12);

  const MetricDelta& gauge = delta_for("gauges.routing.throughput");
  EXPECT_NEAR(gauge.rel_delta, -0.5, 1e-12);

  const MetricDelta& span = delta_for("spans.phase.total_us");
  EXPECT_NEAR(span.rel_delta, 2.0, 1e-12);
}

TEST(DiffReportsTest, FlattensNestedArtifactStatsNumericLeavesOnly) {
  const ReportDiff diff = diff_reports(make_report(1, 1, 1), make_report(1, 1, 1));
  bool saw_nested = false;
  bool saw_array = false;
  for (const MetricDelta& d : diff.deltas) {
    if (d.key == "artifact_stats.nested.depth") saw_nested = true;
    // "tags" holds a string element; "label" is a string: neither may appear.
    EXPECT_EQ(d.key.find("artifact_stats.tags"), std::string::npos);
    EXPECT_EQ(d.key.find("artifact_stats.label"), std::string::npos);
    if (d.key.find("artifact_stats.tags") != std::string::npos) saw_array = true;
  }
  EXPECT_TRUE(saw_nested);
  EXPECT_FALSE(saw_array);
}

TEST(DiffReportsTest, ZeroBaselineYieldsInfiniteRelativeDelta) {
  const ReportDiff diff = diff_reports(make_report(0, 1, 1), make_report(5, 1, 1));
  for (const MetricDelta& d : diff.deltas) {
    if (d.key == "counters.routing.delivered") {
      EXPECT_EQ(d.abs_delta, 5.0);
      EXPECT_TRUE(std::isinf(d.rel_delta));
      EXPECT_GT(d.rel_delta, 0.0);
      return;
    }
  }
  FAIL() << "counter delta missing";
}

TEST(DiffReportsTest, RefusesMismatchedNames) {
  RunReport b = make_report(1, 1, 1);
  std::string text = report_text(1, 1, 1);
  text.replace(text.find("\"demo\""), 6, "\"other\"");
  EXPECT_THROW(diff_reports(RunReport::parse(text), b), InvalidArgument);
}

TEST(DiffReportsTest, RefusesMismatchedConfigsUnlessDisabled) {
  const RunReport a = make_report(1, 1, 1);
  const RunReport b =
      RunReport::parse(report_text(1, 1, 1, "[2, 3, 5, 0]", "10", R"({"n": 8})"));
  EXPECT_THROW(diff_reports(a, b), InvalidArgument);
  DiffOptions relaxed;
  relaxed.require_matching_config = false;
  EXPECT_NO_THROW(diff_reports(a, b, relaxed));
}

TEST(DiffReportsTest, ThreadsConfigIsRunMetadataNotIdentity) {
  // "threads" only changes wall-clock, never outcomes, so two runs differing
  // only there must diff cleanly — and the diff surfaces both values.
  const RunReport a =
      RunReport::parse(report_text(1, 1, 1, "[2, 3, 5, 0]", "10", R"({"n": 6, "threads": 0})"));
  const RunReport b =
      RunReport::parse(report_text(1, 1, 1, "[2, 3, 5, 0]", "10", R"({"n": 6, "threads": 4})"));
  ReportDiff diff;
  ASSERT_NO_THROW(diff = diff_reports(a, b));
  EXPECT_EQ(diff.threads_a, "auto");  // 0 = auto (default_thread_count)
  EXPECT_EQ(diff.threads_b, "4");
  EXPECT_EQ(diff.shard_count_a, "");  // key absent: predates the field
  const std::string md = render_diff_markdown(diff);
  EXPECT_NE(md.find("threads auto → 4"), std::string::npos);
}

TEST(DiffReportsTest, ShardCountConfigStaysPartOfTheIdentity) {
  // A sharded run produces different bits than a serial one, so a
  // shard_count difference is a real config mismatch and must refuse.
  const RunReport a = RunReport::parse(
      report_text(1, 1, 1, "[2, 3, 5, 0]", "10", R"({"n": 6, "shard_count": 8})"));
  const RunReport b = RunReport::parse(
      report_text(1, 1, 1, "[2, 3, 5, 0]", "10", R"({"n": 6, "shard_count": 4})"));
  EXPECT_THROW(diff_reports(a, b), InvalidArgument);
  // Equal shard counts are comparable and get labelled.
  const ReportDiff diff = diff_reports(a, a);
  EXPECT_EQ(diff.shard_count_a, "8");
  EXPECT_EQ(diff.shard_count_b, "8");
  EXPECT_NE(render_diff_markdown(diff).find("shard_count 8"), std::string::npos);
}

TEST(DiffReportsTest, ReportsKeysPresentOnOneSideOnly) {
  std::string text_b = report_text(1, 1, 1);
  text_b.replace(text_b.find("\"area\": 4096"), 12, "\"area2\": 4096");
  const ReportDiff diff = diff_reports(make_report(1, 1, 1), RunReport::parse(text_b));
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  EXPECT_EQ(diff.only_in_a[0], "artifact_stats.area");
  ASSERT_EQ(diff.only_in_b.size(), 1u);
  EXPECT_EQ(diff.only_in_b[0], "artifact_stats.area2");
}

TEST(MetricValueTest, LooksUpFlattenedKeysAndThrowsOnUnknown) {
  const RunReport r = make_report(100, 0.5, 10.0);
  EXPECT_EQ(metric_value(r, "counters.routing.delivered"), 100.0);
  EXPECT_EQ(metric_value(r, "artifact_stats.nested.depth"), 2.0);
  EXPECT_THROW(metric_value(r, "counters.nope"), InvalidArgument);
}

// --- percentile estimation ---------------------------------------------------

TEST(PercentileTest, ExactOnOneValuePerBucketDistribution) {
  // Uniform 1..100 observed into bounds {1, 2, ..., 100}: bucket i holds
  // exactly the value bounds[i], so interpolation must return the true
  // percentile of the discrete distribution.
  Histogram h(Histogram::linear_bounds(1, 1, 100));
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.percentile(1.0), 100.0, 1e-9);
}

TEST(PercentileTest, InterpolatesWithinBucket) {
  // 100 observations all landing in the (8, 16] bucket: the estimator walks
  // linearly across that bucket's width.
  const std::vector<double> bounds = {8, 16};
  const std::vector<u64> counts = {0, 100, 0};
  EXPECT_NEAR(estimate_percentile(bounds, counts, 0.5), 12.0, 1e-9);
  EXPECT_NEAR(estimate_percentile(bounds, counts, 0.25), 10.0, 1e-9);
}

TEST(PercentileTest, OverflowBucketClampsToLastBound) {
  const std::vector<double> bounds = {1, 2};
  const std::vector<u64> counts = {1, 1, 8};  // 80% of mass beyond the last bound
  EXPECT_EQ(estimate_percentile(bounds, counts, 0.99), 2.0);
}

TEST(PercentileTest, EmptyHistogramIsZero) {
  const std::vector<double> bounds = {1, 2};
  const std::vector<u64> counts = {0, 0, 0};
  EXPECT_EQ(estimate_percentile(bounds, counts, 0.5), 0.0);
}

TEST(PercentileTest, RejectsBadArguments) {
  const std::vector<double> bounds = {1, 2};
  const std::vector<u64> ok_counts = {1, 1, 1};
  const std::vector<u64> bad_counts = {1, 1};
  EXPECT_THROW(estimate_percentile(bounds, bad_counts, 0.5), InvalidArgument);
  EXPECT_THROW(estimate_percentile(bounds, ok_counts, 1.5), InvalidArgument);
  EXPECT_THROW(estimate_percentile(bounds, ok_counts, -0.1), InvalidArgument);
}

// --- glob matching + threshold classification --------------------------------

TEST(GlobMatchTest, MatchesWildcards) {
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("spans.*.total_us", "spans.routing.census.total_us"));
  EXPECT_FALSE(glob_match("spans.*.total_us", "spans.routing.max_us"));
  EXPECT_TRUE(glob_match("counters.routing.delivered", "counters.routing.delivered"));
  EXPECT_FALSE(glob_match("counters.routing", "counters.routing.delivered"));
  EXPECT_TRUE(glob_match("*.p50", "histograms.latency.p50"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("*", ""));
}

TEST(ThresholdsTest, FirstMatchingRuleWinsWithFallback) {
  Thresholds t = Thresholds::parse(json::Value::parse(R"({
    "default": {"warn_rel": 0, "fail_rel": 0},
    "rules": [
      {"match": "spans.special.*", "ignore": true},
      {"match": "spans.*", "warn_rel": 0.25, "fail_rel": 3.0}
    ]})"));
  EXPECT_TRUE(t.rule_for("spans.special.total_us").ignore);
  EXPECT_FALSE(t.rule_for("spans.other.total_us").ignore);
  EXPECT_EQ(t.rule_for("spans.other.total_us").warn_rel, 0.25);
  EXPECT_EQ(t.rule_for("counters.x").warn_rel, 0.0);
}

TEST(ThresholdsTest, RejectsUnknownRuleKeysAndInvertedBounds) {
  EXPECT_THROW(Thresholds::parse(json::Value::parse(R"({"rules": [{"oops": 1}]})")),
               InvalidArgument);
  EXPECT_THROW(
      Thresholds::parse(json::Value::parse(R"({"rules": [{"warn_rel": 1, "fail_rel": 0.5}]})")),
      InvalidArgument);
}

TEST(ClassifyTest, PassWarnFailBands) {
  ThresholdRule rule;
  rule.warn_rel = 0.10;
  rule.fail_rel = 0.50;
  const auto delta_with_rel = [](double rel) {
    MetricDelta d;
    d.before = 100.0;
    d.after = 100.0 * (1.0 + rel);
    d.abs_delta = d.after - d.before;
    d.rel_delta = rel;
    return d;
  };
  EXPECT_EQ(classify(delta_with_rel(0.05), rule), Severity::kPass);
  EXPECT_EQ(classify(delta_with_rel(-0.10), rule), Severity::kPass);
  EXPECT_EQ(classify(delta_with_rel(0.25), rule), Severity::kWarn);
  EXPECT_EQ(classify(delta_with_rel(-1.0), rule), Severity::kFail);
}

TEST(ClassifyTest, AbsoluteToleranceExcusesSmallDeltas) {
  ThresholdRule rule;  // warn_rel = fail_rel = 0: exact match required...
  rule.abs_tol = 5.0;  // ...except within the absolute noise floor.
  MetricDelta d;
  d.before = 1.0;
  d.after = 4.0;
  d.abs_delta = 3.0;
  d.rel_delta = 3.0;
  EXPECT_EQ(classify(d, rule), Severity::kPass);
  d.after = 7.0;
  d.abs_delta = 6.0;
  d.rel_delta = 6.0;
  EXPECT_EQ(classify(d, rule), Severity::kFail);
}

TEST(ClassifyTest, InfiniteRelativeDeltaOnlyExcusedByAbsTol) {
  MetricDelta d;
  d.before = 0.0;
  d.after = 1.0;
  d.abs_delta = 1.0;
  d.rel_delta = std::numeric_limits<double>::infinity();
  ThresholdRule loose;
  loose.warn_rel = 10.0;
  loose.fail_rel = 100.0;  // any finite rel tolerance must not excuse it
  EXPECT_EQ(classify(d, loose), Severity::kFail);
  loose.abs_tol = 1.0;
  EXPECT_EQ(classify(d, loose), Severity::kPass);
}

TEST(CheckDiffTest, CountsSeveritiesAndMissingKeys) {
  std::string text_b = report_text(110, 0.5, 1.0);
  text_b.replace(text_b.find("\"area\": 4096"), 12, "\"area2\": 4096");
  const ReportDiff diff = diff_reports(make_report(100, 0.5, 1.0), RunReport::parse(text_b));

  Thresholds exact;  // default-constructed: everything must match exactly
  const CheckResult strict = check_diff(diff, exact);
  EXPECT_FALSE(strict.ok());
  // counter moved 10% (fail) + artifact_stats.area vanished (fail).
  EXPECT_EQ(strict.num_fail, 2);
  ASSERT_EQ(strict.missing_in_b.size(), 1u);
  EXPECT_EQ(strict.missing_in_b[0], "artifact_stats.area");
  ASSERT_EQ(strict.new_in_b.size(), 1u);
  EXPECT_EQ(strict.new_in_b[0], "artifact_stats.area2");
  EXPECT_EQ(strict.num_warn, 1);

  Thresholds loose = Thresholds::parse(json::Value::parse(
      R"({"default": {"warn_rel": 0.25, "fail_rel": 1.0},
          "rules": [{"match": "artifact_stats.area*", "ignore": true}]})"));
  const CheckResult relaxed = check_diff(diff, loose);
  EXPECT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.num_fail, 0);
  EXPECT_TRUE(relaxed.missing_in_b.empty());  // ignored keys drop out entirely
}

TEST(CheckDiffTest, AbsentHistogramWarnsInsteadOfFailing) {
  // A candidate with no histograms at all — what a full checkpoint replay
  // produces (no per-event observations re-recorded).  The baseline's
  // histogram keys must surface as a typed warn, not silence and not FAIL.
  std::string text_b = report_text(100, 0.5, 1.0);
  const std::string hist =
      R"("histograms": {"latency": {"bounds": [1, 2, 4], "counts": [2, 3, 5, 0], "count": 10, "sum": 20}})";
  const std::size_t pos = text_b.find(hist);
  ASSERT_NE(pos, std::string::npos);
  text_b.replace(pos, hist.size(), R"("histograms": {})");
  const ReportDiff diff = diff_reports(make_report(100, 0.5, 1.0), RunReport::parse(text_b));

  Thresholds exact;  // default-constructed: everything must match exactly
  const CheckResult result = check_diff(diff, exact);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.num_fail, 0);
  EXPECT_TRUE(result.missing_in_b.empty());
  // latency.count plus the p50/p95/p99 percentile keys, all typed warns.
  EXPECT_EQ(result.histograms_absent_in_b.size(), 4u);
  EXPECT_EQ(result.num_warn, 4);

  // The markdown table renders the same verdict.
  const std::string md = render_diff_markdown(diff, &exact);
  EXPECT_NE(md.find("| histograms.latency.count | present | missing | | | WARN |"),
            std::string::npos);

  // Degrading (partial candidate) keeps them as warnings, tallied once.
  const CheckResult degraded = degrade_failures_to_warnings(check_diff(diff, exact));
  EXPECT_EQ(degraded.num_fail, 0);
  EXPECT_EQ(degraded.num_warn, 4);

  // An ignore rule still drops them entirely.
  const Thresholds ignoring = Thresholds::parse(json::Value::parse(
      R"({"rules": [{"match": "histograms.*", "ignore": true}]})"));
  EXPECT_TRUE(check_diff(diff, ignoring).histograms_absent_in_b.empty());
}

// --- rendering ---------------------------------------------------------------

TEST(RenderDiffTest, MarkdownTableContainsPercentileRowsAndStatuses) {
  const ReportDiff diff = diff_reports(make_report(100, 0.5, 10.0), make_report(110, 0.5, 10.0));
  const std::string plain = render_diff_markdown(diff);
  EXPECT_NE(plain.find("histograms.latency.p50"), std::string::npos);
  EXPECT_NE(plain.find("histograms.latency.p95"), std::string::npos);
  EXPECT_NE(plain.find("histograms.latency.p99"), std::string::npos);
  EXPECT_NE(plain.find("| counters.routing.delivered | 100 | 110 | 10 | +10.00% |"),
            std::string::npos);
  EXPECT_EQ(plain.find("status"), std::string::npos);

  Thresholds exact;
  const std::string gated = render_diff_markdown(diff, &exact);
  EXPECT_NE(gated.find("FAIL"), std::string::npos);
}

// --- JSON parser edge cases the analytics layer leans on ---------------------

TEST(JsonEdgeCaseTest, DuplicateKeysLastValueWins) {
  const json::Value v = json::Value::parse(R"({"a": 1, "b": 2, "a": 3})");
  EXPECT_EQ(v.at("a").as_double(), 3.0);
  EXPECT_EQ(v.size(), 2u);           // "a" is stored once...
  EXPECT_EQ(v.members()[0].first, "a");  // ...at its first-seen position.
}

TEST(JsonEdgeCaseTest, DeepNestingIsBounded) {
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += '[';
  for (int i = 0; i < 500; ++i) deep += ']';
  EXPECT_THROW(json::Value::parse(deep), InvalidArgument);

  std::string ok;
  for (int i = 0; i < 100; ++i) ok += '[';
  for (int i = 0; i < 100; ++i) ok += ']';
  EXPECT_NO_THROW(json::Value::parse(ok));
}

TEST(JsonEdgeCaseTest, NumbersBeyondDoubleRangeAreRejected) {
  EXPECT_THROW(json::Value::parse("1e999"), InvalidArgument);
  EXPECT_THROW(json::Value::parse("-1e999"), InvalidArgument);
  // Values that round to the double extremes still parse.
  EXPECT_NO_THROW(json::Value::parse("1.7976931348623157e308"));
  EXPECT_NO_THROW(json::Value::parse("1e-999"));  // underflows to 0.0, not an error
}

}  // namespace
}  // namespace bfly::obs
