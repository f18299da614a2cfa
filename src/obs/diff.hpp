// Run-report analytics: load schema v1/v2 run reports (obs/report.hpp),
// compute typed deltas between two runs, classify them against thresholds,
// and render the result as a markdown/ASCII delta table.
//
// The comparable surface of a report is flattened into dotted keys:
//
//   counters.<name>                       u64 counter value
//   gauges.<name>                         gauge value
//   histograms.<name>.count               observation count
//   histograms.<name>.p50 / .p95 / ...    interpolated percentile
//                                         (estimate_percentile, metrics.hpp)
//   spans.<name>.count                    span instances
//   spans.<name>.total_us                 span wall time (the one noisy key;
//                                         see Thresholds)
//   artifact_stats.<key>[.<subkey>...]    numeric artifact facts
//   timeseries.samples / .stride          v2 telemetry block summary
//   timeseries.<channel>.mean / .last     per-channel summary (never the raw
//                                         rows — those are cycle-indexed and
//                                         incomparable across configs)
//   flight.sampled / .packets_seen        v2 flight block summary: traces
//   flight.delivered / .dropped / .hops   recorded, their outcomes, and total
//                                         hops (all deterministic per config)
//
// Two reports are comparable only when their schema version, name, and
// `config` object match — a delta between runs with different parameters is
// meaningless and diff_reports() refuses to compute one.  Every key but span
// wall time is exact for a given config, so the gate compares it for
// equality; span wall time moves run to run, and the Thresholds machinery
// (glob rules with relative tolerances plus an absolute noise floor) is how
// callers separate "CI noise" from "regression" there.  The `bflyreport` CLI
// (tools/) is the command-line face of this header; the CI baseline gate is
// `bflyreport check` against bench/baselines/.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace bfly::obs {

/// A parsed and structurally validated run report (schema version 1 or 2;
/// v2 adds only the optional "timeseries" block, tolerated when absent).
struct RunReport {
  json::Value doc;
  std::string name;
  std::string run_id;
  std::string git_describe;
  /// Run completion status ("complete" / "partial" / "cancelled") and sweep
  /// progress.  Optional on input for back-compat with reports written
  /// before the field existed: missing keys parse as "complete" / 0 / 0.
  std::string status = "complete";
  u64 points_completed = 0;
  u64 points_total = 0;

  bool is_complete() const { return status == "complete"; }

  /// Parses + validates one report document (the compact or pretty form).
  /// Throws InvalidArgument naming the offending key on structural problems:
  /// wrong schema version, missing/mistyped top-level keys, an unknown
  /// status value, or histograms whose bucket counts do not sum to their
  /// count.
  static RunReport parse(std::string_view text);
  /// parse() on the full contents of `path`.
  static RunReport load(const std::string& path);
};

/// Loads a JSONL trajectory (one report per line) tolerantly: blank lines
/// are ignored, and lines that fail to parse — the torn tail a crash leaves
/// behind, or stray corruption — are skipped.  Skips are reported on
/// `warnings` (when non-null) as exactly ONE summary line per file
/// ("skipped N torn lines", naming the first offending 1-based line number
/// and its parse error), so a journal full of garbage cannot flood the log
/// with per-line noise.  `num_skipped` (when non-null) receives the exact
/// skip count.  Throws InvalidArgument only when the
/// file cannot be opened; an all-corrupt file simply returns an empty vector
/// and lets the caller decide (bflyreport exits nonzero only when *nothing*
/// parses).
std::vector<RunReport> load_report_lines(const std::string& path,
                                         std::ostream* warnings = nullptr,
                                         std::size_t* num_skipped = nullptr);

/// One compared metric.  `rel_delta` is (after - before) / |before|: 0 when
/// both sides are 0, and +-infinity when the baseline is 0 but the value
/// moved (rendered as "new"; classification treats it as exceeding any
/// relative tolerance, so only abs_tol can excuse it).
struct MetricDelta {
  std::string key;
  double before = 0.0;
  double after = 0.0;
  double abs_delta = 0.0;
  double rel_delta = 0.0;
};

struct DiffOptions {
  /// Percentiles exported per histogram (labelled pNN in the key).
  std::vector<double> percentiles = {0.5, 0.95, 0.99};
  /// Refuse to diff reports whose `config` objects differ (recommended).
  /// The "threads" and "shard_count" config keys are exempt: they are
  /// execution metadata — per-point outcomes are invariant in both, so runs
  /// differing only there are comparable (the diff surfaces both values as
  /// run metadata instead).
  bool require_matching_config = true;
};

struct ReportDiff {
  std::string name;
  std::string run_a;
  std::string run_b;
  std::string git_a;
  std::string git_b;
  /// Parallelism run metadata pulled from each side's config: the "threads"
  /// and "shard_count" keys rendered as short labels ("auto" for threads 0,
  /// empty when the report predates the key).  Informational only — neither
  /// affects outcomes — but surfacing them answers "what ran where" at a
  /// glance.
  std::string threads_a;
  std::string threads_b;
  std::string shard_count_a;
  std::string shard_count_b;
  std::vector<MetricDelta> deltas;
  /// Keys present on one side only (metric added/removed between runs).
  std::vector<std::string> only_in_a;
  std::vector<std::string> only_in_b;
};

/// Computes the typed delta table between two comparable runs (a = before /
/// baseline, b = after / candidate).  Throws InvalidArgument when the reports
/// are not comparable (schema, name, or — unless disabled — config mismatch).
ReportDiff diff_reports(const RunReport& a, const RunReport& b, const DiffOptions& options = {});

/// Looks up one flattened key (see the file comment for the key scheme) in a
/// report; throws InvalidArgument when the report has no such metric.
double metric_value(const RunReport& report, const std::string& key,
                    const DiffOptions& options = {});

// --- threshold classification ------------------------------------------------

enum class Severity { kPass, kWarn, kFail };

/// One classification rule.  `match` is a glob over flattened keys ('*'
/// matches any run of characters, including dots).  A delta passes a rule
/// when |abs_delta| <= abs_tol or |rel_delta| <= warn_rel; it warns up to
/// fail_rel; beyond that it fails.  warn_rel = fail_rel = 0 therefore means
/// "must match exactly" — the right setting for deterministic artifact stats.
struct ThresholdRule {
  std::string match = "*";
  double warn_rel = 0.0;
  double fail_rel = 0.0;
  /// Absolute noise floor: deltas at most this large always pass (timing keys
  /// in the low microseconds jitter by large relative factors).
  double abs_tol = 0.0;
};

/// Ordered rule list; the first matching rule wins, `fallback` applies when
/// none match.  A rule has no way to skip a key: every key a report carries
/// is classified.  File format (JSON; a rule key other than match, warn_rel,
/// fail_rel and abs_tol is rejected):
///
///   { "default": { "warn_rel": 0, "fail_rel": 0, "abs_tol": 0 },
///     "rules": [ { "match": "spans.*.total_us", "warn_rel": 0.25,
///                  "fail_rel": 3.0, "abs_tol": 20000 } ] }
struct Thresholds {
  ThresholdRule fallback;
  std::vector<ThresholdRule> rules;

  static Thresholds parse(const json::Value& doc);
  static Thresholds load(const std::string& path);

  const ThresholdRule& rule_for(std::string_view key) const;
};

/// True iff `key` matches the '*'-wildcard pattern.
bool glob_match(std::string_view pattern, std::string_view key);

Severity classify(const MetricDelta& delta, const ThresholdRule& rule);

/// A classified diff: every delta paired with its severity, plus missing-key
/// verdicts (a key that disappeared from the candidate fails — a measured
/// artifact vanished; a new key warns — the baseline needs a refresh).
///
/// Histogram keys are the exception to the missing-is-FAIL rule: a histogram
/// present in the baseline but absent from the candidate lands in
/// `histograms_absent_in_b` as a WARN, not a FAIL.  Replay-heavy runs (full
/// checkpoint replay records no per-event observations) legitimately produce
/// reports without histograms while every artifact stat still matches —
/// artifact_percentiles already tolerates the absence, and the gate should
/// flag it, not explode.
struct CheckResult {
  struct Row {
    MetricDelta delta;
    Severity severity = Severity::kPass;
  };
  std::vector<Row> rows;
  std::vector<std::string> missing_in_b;  ///< fail
  std::vector<std::string> new_in_b;      ///< warn
  /// histograms.* keys present only in the baseline: warn.
  std::vector<std::string> histograms_absent_in_b;
  int num_warn = 0;
  int num_fail = 0;

  bool ok() const { return num_fail == 0; }
};

CheckResult check_diff(const ReportDiff& diff, const Thresholds& thresholds);

/// Graceful degradation for non-complete candidates: returns `result` with
/// every FAIL row downgraded to WARN (counts re-tallied).  `bflyreport
/// check`/`diff` apply this when the candidate report's status is "partial"
/// or "cancelled" — an interrupted run legitimately moves or loses metrics,
/// so the baseline gate should flag it, not explode.
CheckResult degrade_failures_to_warnings(CheckResult result);

// --- rendering ---------------------------------------------------------------

/// Markdown/ASCII delta table (one row per metric, sections in key order).
/// With `thresholds`, a status column (ok / WARN / FAIL) is appended.
std::string render_diff_markdown(const ReportDiff& diff, const Thresholds* thresholds = nullptr);

/// Compact fixed-width number formatting shared by the renderers ("1.25M"
/// style for wide magnitudes, full digits for small integers).
std::string format_metric_value(double v);

}  // namespace bfly::obs
