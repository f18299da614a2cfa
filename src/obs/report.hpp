// Structured run reports: one machine-readable JSON document per run with a
// stable schema, so BENCH_*.json trajectories are comparable across PRs.
//
// Schema — every report object has these top-level keys:
//
//   {
//     "schema_version": 1 | 2,
//     "name":         "<tool or bench name>",
//     "run_id":       "<16 hex chars, unique per process run>",
//     "git_describe": "<git describe --always --dirty at build time>",
//     "status":       "complete" | "partial" | "cancelled",
//     "points_completed": <u64>,   // sweep points with a real outcome
//     "points_total":     <u64>,   // sweep points requested (0 = no sweeps)
//     "config":       { ... caller-provided run parameters ... },
//     "metrics": {
//       "counters":   { "<name>": <u64>, ... },
//       "gauges":     { "<name>": <double>, ... },
//       "histograms": { "<name>": { "bounds": [...], "counts": [...],
//                                    "count": <u64>, "sum": <double> }, ... }
//     },
//     "spans":        [ { "name", "count", "total_us" }, ... ],
//     "artifact_stats": { ... caller-provided measured artifact facts ... },
//     "timeseries":   { ... optional cycle-resolved telemetry block ... },
//     "flight":       { ... optional per-packet flight-recorder block ... }
//   }
//
// Version 2 (current) added the optional "timeseries" block — the
// TimeSeries::to_json() encoding of one representative sweep point's
// cycle-resolved samples (obs/timeseries.hpp) — and the optional "flight"
// block, the FlightRecorder::to_json() encoding of one representative
// point's per-packet hop traces (obs/flight.hpp).  A report carrying
// neither is emitted as version 1, so v1-only consumers keep parsing every
// report that carries nothing new; RunReport::parse (obs/diff.hpp) accepts
// both versions and tolerates absent blocks.
//
// Spans are aggregated per name (sorted by name) so a report stays one
// comparable line even when a bench loop executes a phase 10^5 times; the
// per-instance stream with nesting is the Chrome trace export (obs/trace.hpp).
// Reports written before the count-and-total form also carry a per-span
// "max_us"; readers accept and ignore it.
//
// Histogram invariant: counts has bounds.size() + 1 entries (trailing
// overflow bucket) and sums to count — consumers can reconstruct totals
// without trusting a separate field.
//
// The "status" triple is how graceful degradation surfaces in the schema: a
// run whose sweeps were cancelled or lost points reports "cancelled" /
// "partial" (fed from exec::SweepStatus), and diff consumers downgrade
// failures against such reports to warnings (obs/diff.hpp,
// degrade_failures_to_warnings).  Reports written before the field existed
// parse as "complete" with zero counts — the keys are optional on input,
// always present on output.
//
// Writers: write_report_line() emits the compact single-line form (JSONL:
// append one line per run to a log and every line is a complete document);
// write_report_pretty() emits the same document indented for humans.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bfly::obs {

struct ReportOptions {
  /// Tool/bench name, e.g. "bench_routing".
  std::string name;
  /// Run completion status: "complete", "partial", or "cancelled" (see the
  /// schema comment; exec::to_string(SweepStatus) produces these).
  std::string status = "complete";
  /// Sweep-point progress behind `status`; both 0 when the run had no sweeps.
  u64 points_completed = 0;
  u64 points_total = 0;
  /// Run parameters (free-form object; keep it flat and stable).
  json::Value config = json::Value::object();
  /// Measured facts about constructed artifacts (areas, track counts, ...).
  json::Value artifact_stats = json::Value::object();
  /// Optional cycle-resolved telemetry block (TimeSeries::to_json()).  Null
  /// (the default) keeps the report at schema version 1; attaching a block
  /// bumps the emitted version to 2.
  json::Value timeseries = json::Value();
  /// Optional per-packet flight-recorder block (FlightRecorder::to_json()).
  /// Same versioning rule as `timeseries`: null stays v1-compatible,
  /// attaching bumps the emitted version to 2.
  json::Value flight = json::Value();
};

/// The `git describe --always --dirty --tags` of the source tree, captured
/// at *build* time (cmake/git_describe.cmake generates the defining TU on
/// every build); "unknown" when the build is not inside a git checkout.
const char* git_describe();

/// 16 lowercase hex chars; unique across runs (time-seeded).
std::string make_run_id();

/// Assembles the report document from a registry snapshot (schema version 1,
/// or 2 when options.timeseries is attached).
json::Value build_run_report(const Registry& registry, const ReportOptions& options);

/// Compact single-line JSON + newline: the machine interface (stdout).
void write_report_line(std::ostream& os, const Registry& registry,
                       const ReportOptions& options);

/// Indented JSON + newline: the human-inspection form.
void write_report_pretty(std::ostream& os, const Registry& registry,
                         const ReportOptions& options);

}  // namespace bfly::obs
