#include "obs/report.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <random>

namespace bfly::obs {

// git_describe() is defined in a TU generated at build time by
// cmake/git_describe.cmake (declared in report.hpp), so every build — not
// just every configure — stamps reports with the current revision.

std::string make_run_id() {
  // Time-seeded rather than fully random so ids sort roughly by run order;
  // the random_device tail guards against same-tick collisions.
  const u64 ticks = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::random_device rd;
  const u64 id = (ticks << 16) ^ rd() ^ (static_cast<u64>(rd()) << 32);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

json::Value build_run_report(const Registry& registry, const ReportOptions& options) {
  const MetricsSnapshot snap = registry.metrics_snapshot();

  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snap.counters) {
    counters.set(name, json::Value::number(value));
  }
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snap.gauges) {
    gauges.set(name, json::Value::number(value));
  }
  json::Value histograms = json::Value::object();
  for (const MetricsSnapshot::Hist& h : snap.histograms) {
    json::Value bounds = json::Value::array();
    for (const double b : h.bounds) bounds.push_back(json::Value::number(b));
    json::Value counts = json::Value::array();
    for (const u64 c : h.counts) counts.push_back(json::Value::number(c));
    json::Value hist = json::Value::object();
    hist.set("bounds", std::move(bounds));
    hist.set("counts", std::move(counts));
    hist.set("count", json::Value::number(h.count));
    hist.set("sum", json::Value::number(h.sum));
    histograms.set(h.name, std::move(hist));
  }
  json::Value metrics = json::Value::object();
  metrics.set("counters", std::move(counters));
  metrics.set("gauges", std::move(gauges));
  metrics.set("histograms", std::move(histograms));

  // Spans are aggregated per name: a bench loop can produce hundreds of
  // thousands of instances of the same phase, and the report must stay one
  // comparable line.  The full per-instance stream is the Chrome trace
  // export's job (obs/trace.hpp).
  struct SpanAgg {
    u64 count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, SpanAgg> by_name;
  for (const CompletedSpan& s : registry.completed_spans()) {
    SpanAgg& agg = by_name[s.name];
    ++agg.count;
    agg.total_us += s.dur_us;
  }
  json::Value spans = json::Value::array();
  for (const auto& [name, agg] : by_name) {
    json::Value span = json::Value::object();
    span.set("name", json::Value::string(name));
    span.set("count", json::Value::number(agg.count));
    span.set("total_us", json::Value::number(agg.total_us));
    spans.push_back(std::move(span));
  }

  json::Value report = json::Value::object();
  // Reports without telemetry stay at version 1 so v1-only consumers keep
  // working; the optional "timeseries" and "flight" blocks are the only v2
  // additions (both optional, so v2 consumers tolerate either's absence).
  report.set("schema_version", json::Value::number(
                                   options.timeseries.is_null() && options.flight.is_null()
                                       ? 1
                                       : 2));
  report.set("name", json::Value::string(options.name));
  report.set("run_id", json::Value::string(make_run_id()));
  report.set("git_describe", json::Value::string(git_describe()));
  report.set("status", json::Value::string(options.status));
  report.set("points_completed", json::Value::number(options.points_completed));
  report.set("points_total", json::Value::number(options.points_total));
  report.set("config", options.config);
  report.set("metrics", std::move(metrics));
  report.set("spans", std::move(spans));
  report.set("artifact_stats", options.artifact_stats);
  if (!options.timeseries.is_null()) {
    report.set("timeseries", options.timeseries);
  }
  if (!options.flight.is_null()) {
    report.set("flight", options.flight);
  }
  return report;
}

void write_report_line(std::ostream& os, const Registry& registry,
                       const ReportOptions& options) {
  os << build_run_report(registry, options).dump() << '\n';
}

void write_report_pretty(std::ostream& os, const Registry& registry,
                         const ReportOptions& options) {
  os << build_run_report(registry, options).dump(2) << '\n';
}

}  // namespace bfly::obs
