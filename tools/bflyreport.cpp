// bflyreport — run-report analytics CLI over bfly::obs::diff.
//
//   bflyreport diff <a.json> <b.json> [--thresholds <file>] [--no-config-check]
//       Markdown delta table between two schema-v1 run reports (counters,
//       gauges, histogram percentiles, span timings, artifact stats).
//
//   bflyreport trend <reports.jsonl> --metric <key> [--threshold <rel>]
//       Per-run series of one flattened metric across a JSONL trajectory
//       (one report per line), with an ASCII sparkline and a regression flag
//       comparing the newest run against the median of the earlier ones.
//
//   bflyreport check --baseline <dir> [--thresholds <file>] [--reports <dir>]
//                    [--bench-dir <dir>]
//       CI gate: for every <name>.json baseline in <dir>, obtain the current
//       report — <reports>/<name>.run.json if present, otherwise by running
//       <bench-dir>/<name> — diff it against the
//       baseline, classify with the thresholds file (default
//       <dir>/thresholds.json), and exit non-zero on any FAIL.
//
//   bflyreport paths <report.json> [--top <k>]
//       Path-blame analytics over a report's v2 "flight" block (per-packet
//       hop traces recorded by a flight_budget sweep point): the top-K
//       slowest delivered packets with their exact latency decomposition
//       (queue wait + transit + detour == latency), followed by the
//       per-link / per-stage wait blame table.
//
//   bflyreport recovery <report.json>
//       Live-fault recovery analytics from a report's artifact_stats: the
//       per-event recovery table (fault cycle, pre-fault throughput,
//       time-to-recover, transient packet loss) a scheduled bench run
//       exports, the spare-chip failover counters, and the MTBF/MTTR
//       availability curve.
//
//   bflyreport watch <telemetry.jsonl> [--once] [--interval-ms <n>]
//       Tails the live-progress JSONL stream a resumable sweep appends
//       ($BFLY_TELEMETRY_FILE / SweepRunOptions.telemetry_path) and renders
//       in-place progress: completed/total bar, point throughput, ETA from
//       wall-clock record timestamps, and per-stage / in-flight sparklines
//       from the latest telemetry samples.  Tolerates a torn final line
//       (an append in progress) and a file that does not exist yet; exits
//       when the stream's "done" record arrives.  --once renders the current
//       state once and exits — the scriptable form.
//
// Exit codes: 0 = ok (warnings allowed), 1 = regression / failed gate,
// 2 = usage or I/O error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/diff.hpp"
#include "obs/flight.hpp"

namespace fs = std::filesystem;
using namespace bfly;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bflyreport diff <a.json> <b.json> [--thresholds <file>] [--no-config-check]\n"
               "  bflyreport trend <reports.jsonl> --metric <key> [--threshold <rel>]\n"
               "  bflyreport check --baseline <dir> [--thresholds <file>] [--reports <dir>]\n"
               "                   [--bench-dir <dir>]\n"
               "  bflyreport paths <report.json> [--top <k>]\n"
               "  bflyreport recovery <report.json>\n"
               "  bflyreport watch <telemetry.jsonl> [--once] [--interval-ms <n>]\n");
  return 2;
}

/// Strict full-string numeric flag parsing: "250x", "", and "1e999" are
/// usage errors with a message naming the flag, never silently truncated
/// (std::stoi("250x") == 250) or turned into an unhandled exception.
double parse_double_flag(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (text.empty() || pos != text.size() || !std::isfinite(value)) {
    throw InvalidArgument(flag + " expects a finite number, got '" + text + "'");
  }
  return value;
}

int parse_int_flag(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  int value = 0;
  try {
    value = std::stoi(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (text.empty() || pos != text.size()) {
    throw InvalidArgument(flag + " expects an integer, got '" + text + "'");
  }
  return value;
}

/// Pulls the value of `flag` out of args (mutating it); nullopt when absent.
std::optional<std::string> take_option(std::vector<std::string>* args, const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args->size(); ++i) {
    if ((*args)[i] == flag) {
      std::string value = (*args)[i + 1];
      args->erase(args->begin() + static_cast<std::ptrdiff_t>(i),
                  args->begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

bool take_switch(std::vector<std::string>* args, const std::string& flag) {
  const auto it = std::find(args->begin(), args->end(), flag);
  if (it == args->end()) return false;
  args->erase(it);
  return true;
}

int run_diff(std::vector<std::string> args) {
  std::optional<obs::Thresholds> thresholds;
  if (const auto path = take_option(&args, "--thresholds")) {
    thresholds = obs::Thresholds::load(*path);
  }
  obs::DiffOptions options;
  options.require_matching_config = !take_switch(&args, "--no-config-check");
  if (args.size() != 2) return usage();

  const obs::RunReport a = obs::RunReport::load(args[0]);
  const obs::RunReport b = obs::RunReport::load(args[1]);
  const obs::ReportDiff diff = obs::diff_reports(a, b, options);
  std::cout << obs::render_diff_markdown(diff, thresholds ? &*thresholds : nullptr);
  if (thresholds) {
    obs::CheckResult result = obs::check_diff(diff, *thresholds);
    if (!b.is_complete()) {
      // An interrupted candidate legitimately moves or loses metrics: flag
      // the regressions as warnings instead of failing the comparison.
      result = obs::degrade_failures_to_warnings(std::move(result));
      std::cout << "\n_candidate run is " << b.status
                << " (" << b.points_completed << "/" << b.points_total
                << " points); failures downgraded to warnings_\n";
    }
    std::cout << "\n" << result.rows.size() << " metrics compared: " << result.num_warn
              << " warn, " << result.num_fail << " fail\n";
    return result.ok() ? 0 : 1;
  }
  return 0;
}

/// Eight-level sparkline of the series, min..max normalized.
std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  double lo = values[0];
  double hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    const double t = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    out += kLevels[std::min<std::size_t>(7, static_cast<std::size_t>(t * 8.0))];
  }
  return out;
}

int run_trend(std::vector<std::string> args) {
  const auto metric = take_option(&args, "--metric");
  const double threshold =
      parse_double_flag("--threshold", take_option(&args, "--threshold").value_or("0.10"));
  if (threshold < 0.0) throw InvalidArgument("--threshold must be >= 0");
  if (!metric || args.size() != 1) return usage();

  struct Entry {
    std::string run_id;
    std::string git;
    double value = 0.0;
  };
  std::vector<Entry> series;
  std::size_t skipped = 0;
  // Tolerant trajectory load: a crash mid-append leaves a torn final line,
  // which must not take the whole history with it.  Bad lines warn on
  // stderr; the exit is nonzero only when *nothing* parses.
  const std::vector<obs::RunReport> reports = obs::load_report_lines(args[0], &std::cerr, &skipped);
  if (reports.empty() && skipped > 0) {
    std::fprintf(stderr, "bflyreport: no parsable report in '%s' (%zu line(s) skipped)\n",
                 args[0].c_str(), skipped);
    return 2;
  }
  std::size_t without_metric = 0;
  for (const obs::RunReport& report : reports) {
    try {
      series.push_back({report.run_id, report.git_describe, obs::metric_value(report, *metric)});
    } catch (const InvalidArgument&) {
      // Runs that predate the metric are expected in a long-lived trajectory;
      // the series starts at the first run that records it.
      ++without_metric;
    }
  }
  if (series.empty()) {
    std::fprintf(stderr, "bflyreport: no report in '%s' has metric '%s'\n", args[0].c_str(),
                 metric->c_str());
    return 2;
  }

  std::cout << "# bflyreport trend — " << *metric << " (" << series.size() << " runs)\n\n";
  if (without_metric > 0) {
    std::cout << "_skipped " << without_metric << " earlier run(s) without this metric_\n\n";
  }
  std::cout << "| run | git | " << *metric << " | delta% |\n|---|---|---:|---:|\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::cout << "| `" << series[i].run_id << "` | " << series[i].git << " | "
              << obs::format_metric_value(series[i].value) << " | ";
    if (i == 0 || series[i - 1].value == 0.0) {
      std::cout << "— |\n";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+.2f%%",
                    (series[i].value - series[i - 1].value) / std::abs(series[i - 1].value) *
                        100.0);
      std::cout << buf << " |\n";
    }
  }
  std::vector<double> values;
  for (const Entry& e : series) values.push_back(e.value);
  std::cout << "\n" << sparkline(values) << "\n";

  if (series.size() >= 2) {
    // Newest run vs the median of all earlier runs: robust to one noisy entry.
    std::vector<double> prior(values.begin(), values.end() - 1);
    std::nth_element(prior.begin(), prior.begin() + static_cast<std::ptrdiff_t>(prior.size() / 2),
                     prior.end());
    const double median = prior[prior.size() / 2];
    const double last = values.back();
    if (median != 0.0 && std::abs(last - median) / std::abs(median) > threshold) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%+.2f%%", (last - median) / std::abs(median) * 100.0);
      std::cout << "\nREGRESSION FLAG: latest run is " << buf << " vs prior median "
                << obs::format_metric_value(median) << " (threshold ±"
                << static_cast<int>(threshold * 100.0) << "%)\n";
    } else {
      std::cout << "\nno regression: latest within ±" << static_cast<int>(threshold * 100.0)
                << "% of prior median " << obs::format_metric_value(median) << "\n";
    }
  }
  return 0;
}

/// Runs a bench binary and returns its stdout (the single-line JSON run
/// report; tables stay on the inherited stderr).
std::string capture_bench_report(const fs::path& binary) {
  // Built by appends: GCC 12 reports a false -Wrestrict inside
  // std::string's operator+ chain here.
  std::string command = "'";
  command += binary.string();
  command += "'";
  if (binary.string().find('\'') != std::string::npos) {
    throw InvalidArgument("bench path must not contain quotes: " + binary.string());
  }
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw InvalidArgument("cannot run " + command);
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, got);
  const int rc = pclose(pipe);
  if (rc != 0) {
    throw InvalidArgument(binary.string() + " exited with status " + std::to_string(rc));
  }
  return out;
}

int run_check(std::vector<std::string> args) {
  const auto baseline_dir = take_option(&args, "--baseline");
  const auto thresholds_path = take_option(&args, "--thresholds");
  const auto reports_dir = take_option(&args, "--reports");
  const std::string bench_dir = take_option(&args, "--bench-dir").value_or("build/bench");
  if (!baseline_dir || !args.empty()) return usage();

  obs::Thresholds thresholds;  // default: everything must match exactly
  const fs::path default_thresholds = fs::path(*baseline_dir) / "thresholds.json";
  if (thresholds_path) {
    thresholds = obs::Thresholds::load(*thresholds_path);
  } else if (fs::exists(default_thresholds)) {
    thresholds = obs::Thresholds::load(default_thresholds.string());
  }

  std::vector<fs::path> baselines;
  for (const fs::directory_entry& entry : fs::directory_iterator(*baseline_dir)) {
    if (entry.path().extension() == ".json" && entry.path().filename() != "thresholds.json") {
      baselines.push_back(entry.path());
    }
  }
  std::sort(baselines.begin(), baselines.end());
  if (baselines.empty()) {
    std::fprintf(stderr, "bflyreport: no baselines under '%s'\n", baseline_dir->c_str());
    return 2;
  }

  int total_fail = 0;
  int total_warn = 0;
  for (const fs::path& baseline_path : baselines) {
    const std::string name = baseline_path.stem().string();
    const obs::RunReport baseline = obs::RunReport::load(baseline_path.string());

    obs::RunReport current = [&] {
      if (reports_dir) {
        const fs::path candidate = fs::path(*reports_dir) / (name + ".run.json");
        if (fs::exists(candidate)) return obs::RunReport::load(candidate.string());
      }
      const fs::path binary = fs::path(bench_dir) / name;
      if (!fs::exists(binary)) {
        throw InvalidArgument("no current report for '" + name + "': " + binary.string() +
                              " not found (build it, or pass --reports)");
      }
      return obs::RunReport::parse(capture_bench_report(binary));
    }();

    const obs::ReportDiff diff = obs::diff_reports(baseline, current);
    obs::CheckResult result = obs::check_diff(diff, thresholds);
    const bool degraded = !current.is_complete();
    if (degraded) {
      // Partial / cancelled runs degrade gracefully: the gate flags them
      // instead of exploding on metrics an interrupted sweep never produced.
      result = obs::degrade_failures_to_warnings(std::move(result));
    }
    total_fail += result.num_fail;
    total_warn += result.num_warn;

    std::cout << "## " << name << ": " << (result.ok() ? "ok" : "FAIL") << " ("
              << result.rows.size() << " metrics, " << result.num_warn << " warn, "
              << result.num_fail << " fail)\n";
    if (degraded) {
      std::cout << "  note: current run is " << current.status << " ("
                << current.points_completed << "/" << current.points_total
                << " points); failures downgraded to warnings\n";
    }
    for (const obs::CheckResult::Row& row : result.rows) {
      if (row.severity == obs::Severity::kPass) continue;
      std::cout << (row.severity == obs::Severity::kFail ? "  FAIL " : "  warn ")
                << row.delta.key << ": " << obs::format_metric_value(row.delta.before) << " -> "
                << obs::format_metric_value(row.delta.after) << "\n";
    }
    for (const std::string& key : result.missing_in_b) {
      std::cout << (degraded ? "  warn " : "  FAIL ") << key
                << ": present in baseline, missing in current run\n";
    }
    for (const std::string& key : result.new_in_b) {
      std::cout << "  warn " << key << ": new metric, not in baseline (refresh baselines?)\n";
    }
    for (const std::string& key : result.histograms_absent_in_b) {
      std::cout << "  warn " << key
                << ": histogram in baseline, absent in current run (full replay records no"
                   " observations)\n";
    }
  }
  std::cout << "\nbaseline check: " << baselines.size() << " benches, " << total_warn
            << " warn, " << total_fail << " fail -> " << (total_fail == 0 ? "PASS" : "FAIL")
            << "\n";
  return total_fail == 0 ? 0 : 1;
}

// --- paths -------------------------------------------------------------------

int run_paths(std::vector<std::string> args) {
  const int top = parse_int_flag("--top", take_option(&args, "--top").value_or("10"));
  if (top <= 0) throw InvalidArgument("--top must be positive");
  if (args.size() != 1) return usage();

  const obs::RunReport report = obs::RunReport::load(args[0]);
  const json::Value* block = report.doc.find("flight");
  if (block == nullptr) {
    std::fprintf(stderr,
                 "bflyreport: report '%s' has no flight block (record one by running a sweep"
                 " point with a flight_budget)\n",
                 args[0].c_str());
    return 2;
  }
  const obs::FlightRecorder rec = obs::FlightRecorder::from_json(*block);

  u64 delivered_count = 0;
  u64 dropped_count = 0;
  std::vector<const obs::FlightTrace*> delivered;
  for (const obs::FlightTrace& t : rec.traces()) {
    if (t.outcome == obs::FlightOutcome::kDelivered) {
      ++delivered_count;
      delivered.push_back(&t);
    } else if (t.outcome == obs::FlightOutcome::kDropped) {
      ++dropped_count;
    }
  }
  std::cout << "# bflyreport paths — " << report.name << " (B_" << rec.n() << ", "
            << rec.traces().size() << " of " << rec.packets_seen() << " packets sampled: "
            << delivered_count << " delivered, " << dropped_count << " dropped, "
            << rec.traces().size() - delivered_count - dropped_count << " in flight)\n\n";
  if (delivered.empty()) {
    std::cout << "_no delivered trace to decompose_\n";
    return 0;
  }

  // Slowest first; ties broken by creation order so the table is stable.
  std::sort(delivered.begin(), delivered.end(),
            [](const obs::FlightTrace* a, const obs::FlightTrace* b) {
              const u64 la = a->end_cycle + 1 - a->injected_at;
              const u64 lb = b->end_cycle + 1 - b->injected_at;
              if (la != lb) return la > lb;
              return a->packet_id < b->packet_id;
            });
  const std::size_t k = std::min(delivered.size(), static_cast<std::size_t>(top));
  std::cout << "## top " << k << " slowest delivered packets\n\n"
            << "| packet | src -> dst | injected | latency | queue wait | transit | detour |"
               " hops |\n|---:|---|---:|---:|---:|---:|---:|---:|\n";
  for (std::size_t i = 0; i < k; ++i) {
    const obs::FlightTrace& t = *delivered[i];
    const obs::FlightDecomposition d = obs::decompose_flight(t, rec.n());
    std::cout << "| " << t.packet_id << " | " << t.src << " -> " << t.dst << " | "
              << t.injected_at << " | " << d.latency << " | " << d.queue_wait << " | "
              << d.transit << " | " << d.detour << " | " << t.hops.size() << " |\n";
  }

  const obs::FlightBlame blame = obs::flight_blame(rec.traces(), rec.n(), rec.rows());
  const std::size_t nlinks = std::min<std::size_t>(blame.links.size(), 10);
  std::cout << "\n## link blame (top " << nlinks << " by total wait, "
            << blame.links.size() << " links visited)\n\n"
            << "| link | stage | visits | wait sum | wait max | wait p99 |\n"
               "|---:|---:|---:|---:|---:|---:|\n";
  for (std::size_t i = 0; i < nlinks; ++i) {
    const obs::LinkBlame& lb = blame.links[i];
    std::cout << "| " << lb.link << " | " << lb.stage << " | " << lb.visits << " | "
              << lb.wait_sum << " | " << lb.wait_max << " | " << lb.wait_p99 << " |\n";
  }
  std::cout << "\n## stage blame\n\n| stage | visits | wait sum |\n|---:|---:|---:|\n";
  for (std::size_t s = 0; s < blame.stage_wait_sum.size(); ++s) {
    std::cout << "| " << s << " | " << blame.stage_visits[s] << " | " << blame.stage_wait_sum[s]
              << " |\n";
  }
  return 0;
}

// --- recovery ----------------------------------------------------------------

int run_recovery(std::vector<std::string> args) {
  if (args.size() != 1) return usage();
  const obs::RunReport report = obs::RunReport::load(args[0]);
  const json::Value* stats = report.doc.find("artifact_stats");
  const json::Value* recovery = stats != nullptr ? stats->find("recovery") : nullptr;
  const json::Value* live = stats != nullptr ? stats->find("live_fault") : nullptr;
  const json::Value* availability = stats != nullptr ? stats->find("availability") : nullptr;
  if (recovery == nullptr && live == nullptr && availability == nullptr) {
    std::fprintf(stderr,
                 "bflyreport: report '%s' has no recovery/live_fault/availability artifacts"
                 " (record them by running a sweep point with a FaultSchedule attached)\n",
                 args[0].c_str());
    return 2;
  }
  std::cout << "# bflyreport recovery — " << report.name << "\n";

  if (live != nullptr) {
    std::cout << "\n## live fault counters\n\n| counter | value |\n|---|---:|\n";
    for (const auto& [key, value] : live->members()) {
      std::cout << "| " << key << " | " << obs::format_metric_value(value.as_double())
                << " |\n";
    }
  }

  if (recovery != nullptr) {
    std::cout << "\n## recovery per fail epoch\n\n"
              << "| fault cycle | pre throughput | recovered | recovered cycle |"
                 " time to recover | packets lost |\n|---:|---:|---|---:|---:|---:|\n";
    for (std::size_t i = 0; i < recovery->size(); ++i) {
      const json::Value& ev = recovery->at(i);
      std::cout << "| " << ev.at("fault_cycle").as_u64() << " | "
                << obs::format_metric_value(ev.at("pre_throughput").as_double()) << " | "
                << (ev.at("recovered").as_bool() ? "yes" : "NO") << " | "
                << ev.at("recovered_cycle").as_u64() << " | "
                << ev.at("time_to_recover_cycles").as_u64() << " | "
                << ev.at("packets_lost").as_u64() << " |\n";
    }
    const json::Value* residual = stats->find("failover_residual_throughput");
    if (residual != nullptr) {
      std::cout << "\nresidual throughput after all repairs: "
                << obs::format_metric_value(residual->as_double())
                << " of the pre-fault steady state\n";
    }
  }

  if (availability != nullptr) {
    std::cout << "\n## availability curve\n\n"
              << "| mtbf | mttr | fails | repairs | availability | recovered | avg ttr |"
                 " lost | killed |\n|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (std::size_t i = 0; i < availability->size(); ++i) {
      const json::Value& pt = availability->at(i);
      std::cout << "| " << pt.at("mtbf").as_u64() << " | " << pt.at("mttr").as_u64() << " | "
                << pt.at("fail_events").as_u64() << " | " << pt.at("repair_events").as_u64()
                << " | " << obs::format_metric_value(pt.at("availability").as_double())
                << " | " << pt.at("events_recovered").as_u64() << "/"
                << pt.at("events_total").as_u64() << " | "
                << obs::format_metric_value(pt.at("avg_time_to_recover").as_double()) << " | "
                << pt.at("packets_lost").as_u64() << " | " << pt.at("packets_killed").as_u64()
                << " |\n";
    }
  }
  return 0;
}

// --- watch -------------------------------------------------------------------

/// Everything the watch renderer knows, folded record by record from the
/// telemetry stream (exec's TelemetrySink emits start/point/samples/done).
struct WatchState {
  bool started = false;
  bool done = false;
  std::string done_status;
  u64 total = 0;
  u64 completed = 0;
  u64 replayed = 0;
  u64 failed = 0;
  // Latest completed point.
  bool have_point = false;
  u64 point_index = 0;
  double offered_load = 0.0;
  double throughput = 0.0;
  double avg_latency = 0.0;
  bool faulty = false;
  // Latest telemetry samples flush.
  std::vector<double> in_flight;
  std::vector<double> stage_occ;
  u64 sample_stride = 0;
  u64 num_samples = 0;
  // ETA bookkeeping from record wall-clock stamps: rate since the first
  // point record seen by *this* watcher (replayed points land in a burst
  // before the first simulated one, so the start record is a bad epoch).
  bool have_epoch = false;
  u64 epoch_t_ms = 0;
  u64 epoch_completed = 0;
  u64 last_t_ms = 0;
  std::size_t lines_skipped = 0;
};

void fold_record(WatchState* state, const json::Value& rec) {
  const std::string& type = rec.at("type").as_string();
  if (type == "start") {
    state->started = true;
    state->total = rec.at("total").as_u64();
    state->replayed = rec.at("replayed").as_u64();
    state->completed = state->replayed;
  } else if (type == "point") {
    state->have_point = true;
    state->point_index = rec.at("index").as_u64();
    state->completed = rec.at("completed").as_u64();  // includes replayed points
    state->total = rec.at("total").as_u64();
    state->offered_load = rec.at("offered_load").as_double();
    state->throughput = rec.at("throughput").as_double();
    state->avg_latency = rec.at("avg_latency").as_double();
    state->faulty = rec.at("faulty").as_bool();
    state->last_t_ms = rec.at("t_ms").as_u64();
    if (!state->have_epoch) {
      state->have_epoch = true;
      state->epoch_t_ms = state->last_t_ms;
      state->epoch_completed = state->completed;
    }
  } else if (type == "samples") {
    state->sample_stride = rec.at("stride").as_u64();
    state->num_samples = rec.at("num_samples").as_u64();
    const json::Value& in_flight = rec.at("in_flight");
    state->in_flight.clear();
    for (std::size_t i = 0; i < in_flight.size(); ++i) {
      state->in_flight.push_back(in_flight.at(i).as_double());
    }
    const json::Value& stage_occ = rec.at("stage_occ");
    state->stage_occ.clear();
    for (std::size_t i = 0; i < stage_occ.size(); ++i) {
      state->stage_occ.push_back(stage_occ.at(i).as_double());
    }
  } else if (type == "done") {
    state->done = true;
    state->done_status = rec.at("status").as_string();
    state->completed = rec.at("completed").as_u64();
    state->total = rec.at("total").as_u64();
    state->failed = rec.at("failed").as_u64();
  }
  // Unknown record types from a future writer fold to nothing — tolerated.
}

std::string format_duration(double seconds) {
  char buf[32];
  if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.0fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%dm%02ds", static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%dh%02dm", static_cast<int>(seconds) / 3600,
                  static_cast<int>(seconds) % 3600 / 60);
  }
  return buf;
}

std::vector<std::string> render_watch(const WatchState& state, const std::string& path) {
  std::vector<std::string> lines;
  char buf[256];
  if (!state.started) {
    lines.push_back("watch " + path + " — waiting for run to start...");
    return lines;
  }

  const double frac =
      state.total > 0 ? static_cast<double>(state.completed) / static_cast<double>(state.total)
                      : 0.0;
  constexpr int kBarWidth = 24;
  const int filled = static_cast<int>(frac * kBarWidth);
  std::string bar;
  for (int i = 0; i < kBarWidth; ++i) bar += i < filled ? "█" : "░";
  std::snprintf(buf, sizeof(buf), "watch %s — [%s] %llu/%llu points (%.0f%%, %llu replayed)",
                path.c_str(), bar.c_str(), static_cast<unsigned long long>(state.completed),
                static_cast<unsigned long long>(state.total), frac * 100.0,
                static_cast<unsigned long long>(state.replayed));
  lines.emplace_back(buf);

  if (state.have_point) {
    std::snprintf(buf, sizeof(buf),
                  "latest: point %llu%s  load %.3f  throughput %.4f  avg latency %.2f",
                  static_cast<unsigned long long>(state.point_index),
                  state.faulty ? " (faulty)" : "", state.offered_load, state.throughput,
                  state.avg_latency);
    lines.emplace_back(buf);
  }

  if (state.done) {
    std::snprintf(buf, sizeof(buf), "done: %s (%llu failed)", state.done_status.c_str(),
                  static_cast<unsigned long long>(state.failed));
    lines.emplace_back(buf);
  } else if (state.have_epoch && state.completed > state.epoch_completed &&
             state.last_t_ms > state.epoch_t_ms) {
    const double elapsed_s =
        static_cast<double>(state.last_t_ms - state.epoch_t_ms) / 1000.0;
    const double rate =
        static_cast<double>(state.completed - state.epoch_completed) / elapsed_s;
    const double remaining = static_cast<double>(state.total - state.completed);
    std::snprintf(buf, sizeof(buf), "ETA ~%s at %.2f points/s",
                  format_duration(remaining / rate).c_str(), rate);
    lines.emplace_back(buf);
  } else {
    lines.emplace_back("ETA —");
  }

  if (!state.in_flight.empty()) {
    std::snprintf(buf, sizeof(buf), "  (%llu samples, stride %llu)",
                  static_cast<unsigned long long>(state.num_samples),
                  static_cast<unsigned long long>(state.sample_stride));
    lines.push_back("in-flight  " + sparkline(state.in_flight) + buf);
  }
  if (!state.stage_occ.empty()) {
    lines.push_back("stage occ  " + sparkline(state.stage_occ) + "  (queue occupancy by stage)");
  }
  return lines;
}

int run_watch(std::vector<std::string> args) {
  const bool once = take_switch(&args, "--once");
  const int interval_ms =
      parse_int_flag("--interval-ms", take_option(&args, "--interval-ms").value_or("250"));
  if (interval_ms <= 0) throw InvalidArgument("--interval-ms must be positive");
  if (args.size() != 1) return usage();
  const std::string path = args[0];
  if (once && !fs::exists(path)) {
    std::fprintf(stderr, "bflyreport: telemetry file '%s' does not exist\n", path.c_str());
    return 2;
  }

  WatchState state;
  std::streamoff offset = 0;
  std::string carry;  // torn tail of the previous read (an append in flight)

  const auto poll = [&] {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < offset) {
      // Truncated/rotated under us: start over from a clean slate.
      offset = 0;
      carry.clear();
      state = WatchState{};
    }
    if (size <= offset) return;
    in.seekg(offset);
    std::string chunk(static_cast<std::size_t>(size - offset), '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    offset = size;
    carry += chunk;
    std::size_t start = 0;
    for (std::size_t nl = carry.find('\n'); nl != std::string::npos;
         nl = carry.find('\n', start)) {
      const std::string line = carry.substr(start, nl - start);
      start = nl + 1;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        fold_record(&state, json::Value::parse(line));
      } catch (const std::exception&) {
        // Corrupt line (should not happen — appends are durable and the torn
        // tail has no newline yet): count and keep tailing.
        ++state.lines_skipped;
      }
    }
    carry.erase(0, start);
  };

  int rendered = 0;
  const auto redraw = [&](const std::vector<std::string>& lines) {
    if (rendered > 0) std::printf("\x1b[%dA", rendered);
    for (const std::string& line : lines) std::printf("\x1b[2K%s\n", line.c_str());
    std::fflush(stdout);
    rendered = static_cast<int>(lines.size());
  };

  while (true) {
    poll();
    if (once) {
      // Scriptable form: plain lines, no cursor movement.
      for (const std::string& line : render_watch(state, path)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    redraw(render_watch(state, path));
    if (state.done) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "diff") return run_diff(std::move(args));
    if (command == "trend") return run_trend(std::move(args));
    if (command == "check") return run_check(std::move(args));
    if (command == "paths") return run_paths(std::move(args));
    if (command == "recovery") return run_recovery(std::move(args));
    if (command == "watch") return run_watch(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bflyreport: %s\n", e.what());
    return 2;
  }
  return usage();
}
