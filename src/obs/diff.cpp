#include "obs/diff.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace bfly::obs {

namespace {

[[noreturn]] void bad_report(const std::string& what) {
  throw InvalidArgument("run report: " + what);
}

const json::Value& require_key(const json::Value& obj, std::string_view key,
                               json::Value::Type type, const char* context) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) bad_report(std::string(context) + " is missing key '" + std::string(key) + "'");
  if (v->type() != type) {
    bad_report(std::string(context) + " key '" + std::string(key) + "' has the wrong type");
  }
  return *v;
}

/// Percentile label: 0.5 -> "p50", 0.999 -> "p99.9".
std::string percentile_label(double q) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%g", q * 100.0);
  return std::string("p") + buf;
}

/// The flattened numeric surface of a report, in section order.
struct FlatReport {
  std::vector<std::pair<std::string, double>> entries;
  std::unordered_map<std::string, double> index;

  void add(std::string key, double value) {
    index.emplace(key, value);
    entries.emplace_back(std::move(key), value);
  }
};

void flatten_artifact(const std::string& prefix, const json::Value& v, FlatReport* out) {
  switch (v.type()) {
    case json::Value::Type::kNumber: out->add(prefix, v.as_double()); return;
    case json::Value::Type::kObject:
      for (const auto& [key, member] : v.members()) {
        flatten_artifact(prefix + "." + key, member, out);
      }
      return;
    case json::Value::Type::kArray:
      for (std::size_t i = 0; i < v.size(); ++i) {
        flatten_artifact(prefix + "." + std::to_string(i), v.at(i), out);
      }
      return;
    default: return;  // strings / bools / nulls are not comparable metrics
  }
}

FlatReport flatten(const RunReport& report, const DiffOptions& options) {
  FlatReport flat;
  const json::Value& metrics = report.doc.at("metrics");

  for (const auto& [name, v] : metrics.at("counters").members()) {
    flat.add("counters." + name, v.as_double());
  }
  for (const auto& [name, v] : metrics.at("gauges").members()) {
    flat.add("gauges." + name, v.as_double());
  }
  for (const auto& [name, h] : metrics.at("histograms").members()) {
    const std::string prefix = "histograms." + name;
    flat.add(prefix + ".count", h.at("count").as_double());
    const json::Value& bounds_json = h.at("bounds");
    const json::Value& counts_json = h.at("counts");
    std::vector<double> bounds(bounds_json.size());
    std::vector<u64> counts(counts_json.size());
    for (std::size_t i = 0; i < bounds.size(); ++i) bounds[i] = bounds_json.at(i).as_double();
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = counts_json.at(i).as_u64();
    for (const double q : options.percentiles) {
      flat.add(prefix + "." + percentile_label(q), estimate_percentile(bounds, counts, q));
    }
  }
  const json::Value& spans = report.doc.at("spans");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const json::Value& span = spans.at(i);
    const std::string prefix = "spans." + span.at("name").as_string();
    flat.add(prefix + ".count", span.at("count").as_double());
    flat.add(prefix + ".total_us", span.at("total_us").as_double());
    flat.add(prefix + ".max_us", span.at("max_us").as_double());
  }
  flatten_artifact("artifact_stats", report.doc.at("artifact_stats"), &flat);
  // v2 telemetry block: summarize rather than flatten the raw rows — sample
  // cycles are config-dependent, so per-row keys would never line up between
  // runs, but per-channel means and final values are stable summaries.
  if (const json::Value* ts = report.doc.find("timeseries")) {
    const json::Value& cycles = ts->at("cycles");
    const json::Value& channels = ts->at("channels");
    const json::Value& samples = ts->at("samples");
    flat.add("timeseries.samples", static_cast<double>(cycles.size()));
    flat.add("timeseries.stride", ts->at("stride").as_double());
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const std::string prefix = "timeseries." + channels.at(c).as_string();
      double sum = 0.0;
      for (std::size_t r = 0; r < samples.size(); ++r) sum += samples.at(r).at(c).as_double();
      const std::size_t rows = samples.size();
      flat.add(prefix + ".mean", rows > 0 ? sum / static_cast<double>(rows) : 0.0);
      flat.add(prefix + ".last", rows > 0 ? samples.at(rows - 1).at(c).as_double() : 0.0);
    }
  }
  // v2 flight block: like telemetry, summarize — the per-trace hop sequences
  // are exact replay state, but only the aggregate counts make stable diff
  // keys.  All of these are deterministic per config, so exact-match rules
  // apply cleanly.
  if (const json::Value* fl = report.doc.find("flight")) {
    const json::Value& traces = fl->at("traces");
    // Per-reason drop counts (codes 0..4 = the kFlightDrop* constants): a
    // faulty run's drops are a mix of queue-full, budget, endpoint, and
    // fault-kill losses, and an aggregate count would hide a regression in
    // one bucket compensated by another.  All five keys always emit (as
    // zeros when unused) so baseline and candidate line up.
    constexpr std::size_t kReasons = 5;
    static constexpr const char* kReasonName[kReasons] = {
        "endpoint_dead", "no_alive_link", "budget_exhausted", "queue_full", "killed_by_fault"};
    double delivered = 0.0, dropped = 0.0, hops = 0.0;
    double by_reason[kReasons] = {};
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const json::Value& t = traces.at(i);
      const u64 outcome = t.at("outcome").as_u64();
      if (outcome == 1) delivered += 1.0;
      if (outcome == 2) {
        dropped += 1.0;
        const u64 reason = t.at("drop_reason").as_u64();
        if (reason < kReasons) by_reason[reason] += 1.0;
      }
      hops += static_cast<double>(t.at("hops").size());
    }
    flat.add("flight.sampled", static_cast<double>(traces.size()));
    flat.add("flight.packets_seen", fl->at("packets_seen").as_double());
    flat.add("flight.delivered", delivered);
    flat.add("flight.dropped", dropped);
    for (std::size_t r = 0; r < kReasons; ++r) {
      flat.add(std::string("flight.dropped.") + kReasonName[r], by_reason[r]);
    }
    flat.add("flight.hops", hops);
  }
  return flat;
}

/// Histogram keys warn (not fail) when absent from the candidate: full-replay
/// runs record no per-event observations, so their reports legitimately carry
/// no histograms (see CheckResult's doc comment).
bool is_histogram_key(std::string_view key) {
  return key.starts_with("histograms.");
}

}  // namespace

RunReport RunReport::parse(std::string_view text) {
  RunReport report;
  report.doc = json::Value::parse(text);
  if (!report.doc.is_object()) bad_report("document is not an object");

  const json::Value& version =
      require_key(report.doc, "schema_version", json::Value::Type::kNumber, "document");
  if (version.as_double() != 1 && version.as_double() != 2) {
    bad_report("unsupported schema_version " + version.dump() + " (expected 1 or 2)");
  }
  report.name =
      require_key(report.doc, "name", json::Value::Type::kString, "document").as_string();
  report.run_id =
      require_key(report.doc, "run_id", json::Value::Type::kString, "document").as_string();
  report.git_describe =
      require_key(report.doc, "git_describe", json::Value::Type::kString, "document").as_string();
  // The status triple is optional on input: trajectories and baselines
  // written before the field existed parse as complete runs.
  if (const json::Value* status = report.doc.find("status")) {
    if (!status->is_string()) bad_report("key 'status' has the wrong type");
    report.status = status->as_string();
    if (report.status != "complete" && report.status != "partial" &&
        report.status != "cancelled") {
      bad_report("unknown status '" + report.status + "'");
    }
  }
  if (const json::Value* completed = report.doc.find("points_completed")) {
    if (!completed->is_number()) bad_report("key 'points_completed' has the wrong type");
    report.points_completed = completed->as_u64();
  }
  if (const json::Value* total = report.doc.find("points_total")) {
    if (!total->is_number()) bad_report("key 'points_total' has the wrong type");
    report.points_total = total->as_u64();
  }
  require_key(report.doc, "config", json::Value::Type::kObject, "document");
  require_key(report.doc, "artifact_stats", json::Value::Type::kObject, "document");

  const json::Value& metrics =
      require_key(report.doc, "metrics", json::Value::Type::kObject, "document");
  require_key(metrics, "counters", json::Value::Type::kObject, "metrics");
  require_key(metrics, "gauges", json::Value::Type::kObject, "metrics");
  const json::Value& histograms =
      require_key(metrics, "histograms", json::Value::Type::kObject, "metrics");
  for (const auto& [name, h] : histograms.members()) {
    const char* ctx = "histogram";
    if (!h.is_object()) bad_report("histogram '" + name + "' is not an object");
    const json::Value& bounds = require_key(h, "bounds", json::Value::Type::kArray, ctx);
    const json::Value& counts = require_key(h, "counts", json::Value::Type::kArray, ctx);
    const json::Value& count = require_key(h, "count", json::Value::Type::kNumber, ctx);
    require_key(h, "sum", json::Value::Type::kNumber, ctx);
    if (counts.size() != bounds.size() + 1) {
      bad_report("histogram '" + name + "' needs bounds.size() + 1 bucket counts");
    }
    u64 total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) total += counts.at(i).as_u64();
    if (total != count.as_u64()) {
      bad_report("histogram '" + name + "' bucket counts do not sum to its count");
    }
  }

  const json::Value& spans =
      require_key(report.doc, "spans", json::Value::Type::kArray, "document");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const json::Value& span = spans.at(i);
    if (!span.is_object()) bad_report("span rows must be objects");
    require_key(span, "name", json::Value::Type::kString, "span");
    require_key(span, "count", json::Value::Type::kNumber, "span");
    require_key(span, "total_us", json::Value::Type::kNumber, "span");
    require_key(span, "max_us", json::Value::Type::kNumber, "span");
  }

  // The optional v2 telemetry block.  Validated only structurally (the shape
  // flatten() depends on); the strict on-grid/stride checks live in
  // TimeSeries::from_json, which is the consumer that replays samples.
  if (const json::Value* ts = report.doc.find("timeseries")) {
    if (!ts->is_object()) bad_report("key 'timeseries' has the wrong type");
    const json::Value& channels =
        require_key(*ts, "channels", json::Value::Type::kArray, "timeseries");
    const json::Value& cycles =
        require_key(*ts, "cycles", json::Value::Type::kArray, "timeseries");
    const json::Value& samples =
        require_key(*ts, "samples", json::Value::Type::kArray, "timeseries");
    require_key(*ts, "stride", json::Value::Type::kNumber, "timeseries");
    for (std::size_t i = 0; i < channels.size(); ++i) {
      if (!channels.at(i).is_string()) bad_report("timeseries channel names must be strings");
    }
    if (samples.size() != cycles.size()) {
      bad_report("timeseries needs one sample row per cycle");
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const json::Value& row = samples.at(i);
      if (!row.is_array() || row.size() != channels.size()) {
        bad_report("timeseries sample rows must have one value per channel");
      }
    }
  }

  // The optional v2 flight block, validated to the shape flatten() reads;
  // the strict per-hop checks live in FlightRecorder::from_json.
  if (const json::Value* fl = report.doc.find("flight")) {
    if (!fl->is_object()) bad_report("key 'flight' has the wrong type");
    require_key(*fl, "budget", json::Value::Type::kNumber, "flight");
    require_key(*fl, "packets_seen", json::Value::Type::kNumber, "flight");
    const json::Value& traces = require_key(*fl, "traces", json::Value::Type::kArray, "flight");
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const json::Value& t = traces.at(i);
      if (!t.is_object()) bad_report("flight traces must be objects");
      require_key(t, "outcome", json::Value::Type::kNumber, "flight trace");
      require_key(t, "hops", json::Value::Type::kArray, "flight trace");
    }
  }
  return report;
}

RunReport RunReport::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InvalidArgument("run report: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(std::string(e.what()) + " (in '" + path + "')");
  }
}

std::vector<RunReport> load_report_lines(const std::string& path, std::ostream* warnings,
                                         std::size_t* num_skipped) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InvalidArgument("run report: cannot open '" + path + "'");
  std::vector<RunReport> reports;
  std::string line;
  std::size_t line_no = 0;
  std::size_t skipped = 0;
  std::size_t first_bad_line = 0;
  std::string first_bad_error;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      reports.push_back(RunReport::parse(line));
    } catch (const std::exception& e) {
      // The torn line a crash leaves at the tail of a JSONL trajectory (or
      // any stray corruption): count it and keep going — one bad line must
      // not take every good run with it.
      ++skipped;
      if (first_bad_line == 0) {
        first_bad_line = line_no;
        first_bad_error = e.what();
      }
    }
  }
  // One summary line per file, however many lines were torn: a journal a
  // crash loop (or a truncated copy) filled with garbage must not flood the
  // caller's log with one warning per line.
  if (skipped > 0 && warnings != nullptr) {
    *warnings << "warning: " << path << ": skipped " << skipped << " torn line"
              << (skipped == 1 ? "" : "s") << " (first at line " << first_bad_line << ": "
              << first_bad_error << ")\n";
  }
  if (num_skipped != nullptr) *num_skipped = skipped;
  return reports;
}

namespace {

/// The config object minus the "threads" and "shard_count" keys: both are
/// execution metadata (outcomes are invariant in them), so they must not
/// break comparability.  Everything else stays part of the identity.
json::Value comparable_config(const json::Value& config) {
  json::Value out = json::Value::object();
  for (const auto& [key, value] : config.members()) {
    if (key == "threads" || key == "shard_count") continue;
    out.set(key, value);
  }
  return out;
}

/// Short label for a numeric config key: "auto" for threads 0, the integer
/// otherwise, "" when the report predates the key.
std::string config_label(const RunReport& r, std::string_view key, bool zero_is_auto) {
  const json::Value* config = r.doc.find("config");
  const json::Value* v = config != nullptr ? config->find(key) : nullptr;
  if (v == nullptr || !v->is_number()) return "";
  const double d = v->as_double();
  if (zero_is_auto && d == 0.0) return "auto";
  std::ostringstream out;
  out << static_cast<long long>(d);
  return out.str();
}

}  // namespace

ReportDiff diff_reports(const RunReport& a, const RunReport& b, const DiffOptions& options) {
  if (a.name != b.name) {
    throw InvalidArgument("diff: reports name different runs ('" + a.name + "' vs '" + b.name +
                          "')");
  }
  if (options.require_matching_config &&
      comparable_config(a.doc.at("config")).dump() !=
          comparable_config(b.doc.at("config")).dump()) {
    throw InvalidArgument("diff: run configs differ for '" + a.name +
                          "': " + a.doc.at("config").dump() + " vs " + b.doc.at("config").dump());
  }

  ReportDiff diff;
  diff.name = a.name;
  diff.run_a = a.run_id;
  diff.run_b = b.run_id;
  diff.git_a = a.git_describe;
  diff.git_b = b.git_describe;
  diff.threads_a = config_label(a, "threads", /*zero_is_auto=*/true);
  diff.threads_b = config_label(b, "threads", /*zero_is_auto=*/true);
  diff.shard_count_a = config_label(a, "shard_count", /*zero_is_auto=*/false);
  diff.shard_count_b = config_label(b, "shard_count", /*zero_is_auto=*/false);

  const FlatReport fa = flatten(a, options);
  const FlatReport fb = flatten(b, options);
  for (const auto& [key, before] : fa.entries) {
    const auto it = fb.index.find(key);
    if (it == fb.index.end()) {
      diff.only_in_a.push_back(key);
      continue;
    }
    MetricDelta d;
    d.key = key;
    d.before = before;
    d.after = it->second;
    d.abs_delta = d.after - d.before;
    if (d.before != 0.0) {
      d.rel_delta = d.abs_delta / std::abs(d.before);
    } else if (d.abs_delta != 0.0) {
      d.rel_delta = std::copysign(std::numeric_limits<double>::infinity(), d.abs_delta);
    }
    diff.deltas.push_back(std::move(d));
  }
  for (const auto& [key, value] : fb.entries) {
    (void)value;
    if (!fa.index.contains(key)) diff.only_in_b.push_back(key);
  }
  return diff;
}

double metric_value(const RunReport& report, const std::string& key,
                    const DiffOptions& options) {
  const FlatReport flat = flatten(report, options);
  const auto it = flat.index.find(key);
  if (it == flat.index.end()) {
    throw InvalidArgument("report '" + report.name + "' has no metric '" + key + "'");
  }
  return it->second;
}

// --- thresholds --------------------------------------------------------------

bool glob_match(std::string_view pattern, std::string_view key) {
  std::size_t p = 0;
  std::size_t k = 0;
  std::size_t star = std::string_view::npos;
  std::size_t mark = 0;
  while (k < key.size()) {
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = k;
    } else if (p < pattern.size() && pattern[p] == key[k]) {
      ++p;
      ++k;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      k = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

ThresholdRule parse_rule(const json::Value& v, const ThresholdRule& defaults) {
  BFLY_REQUIRE(v.is_object(), "thresholds: rule must be an object");
  ThresholdRule rule = defaults;
  for (const auto& [key, value] : v.members()) {
    if (key == "match") {
      rule.match = value.as_string();
    } else if (key == "warn_rel") {
      rule.warn_rel = value.as_double();
    } else if (key == "fail_rel") {
      rule.fail_rel = value.as_double();
    } else if (key == "abs_tol") {
      rule.abs_tol = value.as_double();
    } else if (key == "ignore") {
      rule.ignore = value.as_bool();
    } else {
      throw InvalidArgument("thresholds: unknown rule key '" + key + "'");
    }
  }
  BFLY_REQUIRE(rule.fail_rel >= rule.warn_rel,
               "thresholds: fail_rel must be >= warn_rel for '" + rule.match + "'");
  return rule;
}

}  // namespace

Thresholds Thresholds::parse(const json::Value& doc) {
  BFLY_REQUIRE(doc.is_object(), "thresholds: document must be an object");
  Thresholds t;
  if (const json::Value* fallback = doc.find("default")) {
    t.fallback = parse_rule(*fallback, ThresholdRule{});
  }
  if (const json::Value* rules = doc.find("rules")) {
    BFLY_REQUIRE(rules->is_array(), "thresholds: 'rules' must be an array");
    for (std::size_t i = 0; i < rules->size(); ++i) {
      t.rules.push_back(parse_rule(rules->at(i), ThresholdRule{}));
    }
  }
  return t;
}

Thresholds Thresholds::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InvalidArgument("thresholds: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(json::Value::parse(text.str()));
}

const ThresholdRule& Thresholds::rule_for(std::string_view key) const {
  for (const ThresholdRule& rule : rules) {
    if (glob_match(rule.match, key)) return rule;
  }
  return fallback;
}

Severity classify(const MetricDelta& delta, const ThresholdRule& rule) {
  if (rule.ignore) return Severity::kPass;
  if (std::abs(delta.abs_delta) <= rule.abs_tol) return Severity::kPass;
  const double rel = std::abs(delta.rel_delta);
  if (rel <= rule.warn_rel) return Severity::kPass;
  if (rel <= rule.fail_rel) return Severity::kWarn;
  return Severity::kFail;
}

CheckResult check_diff(const ReportDiff& diff, const Thresholds& thresholds) {
  CheckResult result;
  for (const MetricDelta& delta : diff.deltas) {
    const ThresholdRule& rule = thresholds.rule_for(delta.key);
    if (rule.ignore) continue;
    CheckResult::Row row;
    row.delta = delta;
    row.severity = classify(delta, rule);
    if (row.severity == Severity::kWarn) ++result.num_warn;
    if (row.severity == Severity::kFail) ++result.num_fail;
    result.rows.push_back(std::move(row));
  }
  for (const std::string& key : diff.only_in_a) {
    if (thresholds.rule_for(key).ignore) continue;
    if (is_histogram_key(key)) {
      result.histograms_absent_in_b.push_back(key);
      ++result.num_warn;
    } else {
      result.missing_in_b.push_back(key);
      ++result.num_fail;
    }
  }
  for (const std::string& key : diff.only_in_b) {
    if (thresholds.rule_for(key).ignore) continue;
    result.new_in_b.push_back(key);
    ++result.num_warn;
  }
  return result;
}

CheckResult degrade_failures_to_warnings(CheckResult result) {
  result.num_warn = 0;
  result.num_fail = 0;
  for (CheckResult::Row& row : result.rows) {
    if (row.severity == Severity::kFail) row.severity = Severity::kWarn;
    if (row.severity == Severity::kWarn) ++result.num_warn;
  }
  // Missing-key verdicts fail for complete runs; for an interrupted one a
  // vanished metric is exactly what "partial" promises, so they warn too.
  result.num_warn += static_cast<int>(result.missing_in_b.size());
  result.num_warn += static_cast<int>(result.new_in_b.size());
  result.num_warn += static_cast<int>(result.histograms_absent_in_b.size());
  return result;
}

// --- rendering ---------------------------------------------------------------

std::string format_metric_value(double v) {
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

namespace {

std::string format_rel(double rel) {
  if (std::isinf(rel)) return rel > 0 ? "new" : "gone";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", rel * 100.0);
  return buf;
}

const char* severity_label(Severity s) {
  switch (s) {
    case Severity::kPass: return "ok";
    case Severity::kWarn: return "WARN";
    case Severity::kFail: return "FAIL";
  }
  return "?";
}

}  // namespace

std::string render_diff_markdown(const ReportDiff& diff, const Thresholds* thresholds) {
  std::ostringstream out;
  out << "# bflyreport diff — " << diff.name << "\n\n";
  out << "runs: `" << diff.run_a << "` (" << diff.git_a << ") → `" << diff.run_b << "` ("
      << diff.git_b << ")\n";
  // Parallelism metadata, when either side recorded it: wall-clock-only
  // context.
  if (!diff.threads_a.empty() || !diff.threads_b.empty() || !diff.shard_count_a.empty() ||
      !diff.shard_count_b.empty()) {
    const auto arrow = [](const std::string& x, const std::string& y) {
      const std::string lhs = x.empty() ? "?" : x;
      const std::string rhs = y.empty() ? "?" : y;
      return lhs == rhs ? lhs : lhs + " → " + rhs;
    };
    out << "parallelism:";
    if (!diff.threads_a.empty() || !diff.threads_b.empty()) {
      out << " threads " << arrow(diff.threads_a, diff.threads_b);
    }
    if (!diff.shard_count_a.empty() || !diff.shard_count_b.empty()) {
      out << " shard_count " << arrow(diff.shard_count_a, diff.shard_count_b);
    }
    out << "\n";
  }
  out << "\n";
  out << "| metric | before | after | delta | delta% |";
  if (thresholds != nullptr) out << " status |";
  out << "\n|---|---:|---:|---:|---:|";
  if (thresholds != nullptr) out << "---|";
  out << "\n";
  for (const MetricDelta& d : diff.deltas) {
    const ThresholdRule* rule = thresholds != nullptr ? &thresholds->rule_for(d.key) : nullptr;
    if (rule != nullptr && rule->ignore) continue;
    out << "| " << d.key << " | " << format_metric_value(d.before) << " | "
        << format_metric_value(d.after) << " | " << format_metric_value(d.abs_delta) << " | "
        << format_rel(d.rel_delta) << " |";
    if (rule != nullptr) out << ' ' << severity_label(classify(d, *rule)) << " |";
    out << "\n";
  }
  for (const std::string& key : diff.only_in_a) {
    if (thresholds != nullptr && thresholds->rule_for(key).ignore) continue;
    out << "| " << key << " | present | missing | | |";
    // Matches check_diff's verdict: absent histograms warn, everything else
    // that vanished fails.
    if (thresholds != nullptr) out << (is_histogram_key(key) ? " WARN |" : " FAIL |");
    out << "\n";
  }
  for (const std::string& key : diff.only_in_b) {
    if (thresholds != nullptr && thresholds->rule_for(key).ignore) continue;
    out << "| " << key << " | missing | present | | |";
    if (thresholds != nullptr) out << " WARN |";
    out << "\n";
  }
  return out.str();
}

}  // namespace bfly::obs
