// perfbench_driver: runs one benchmark workload in this process and prints
// one JSON result line.
//
//   perfbench_driver --workload curve|layout|serve --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE] [--setup-only NS]
//                    --scratch-base DIR
//
// --setup-only NS runs only the workload's set-up and reports setup_s, the
// time from NS (the CLOCK_MONOTONIC nanosecond at which the launcher spawned
// this process) to the point where the first timed operation would start.
//
// The driver makes a fresh directory under --scratch-base, works inside it
// (checkpoint journals, the bflyd socket and cache journal), and removes it
// before exiting; a workload that leaves files behind fails its run.  The
// last stdout line is a JSON object with "correct", "attempted", "failed",
// "metrics" (name -> {value, unit}), "samples" (percentile sample counts),
// "env" and "errors".  perfbench/run.py builds the driver and wraps it.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Tracer::record(const char* name, u64 id, u64 parent, Clock::time_point t0,
                    Clock::time_point t1, u64 tid, u64 count) {
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, us(t0), us(t1), tid, count});
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  const std::lock_guard<std::mutex> lock(mu_);
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"count\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, static_cast<unsigned long long>(s.tid), s.t0_us,
                  s.t1_us - s.t0_us, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.count));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q, std::size_t* beyond) {
  if (v.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q * N samples at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  if (beyond != nullptr) *beyond = v.size() - rank;
  return v[rank - 1];
}

double quiet_quantile(const std::vector<double>& per_window, bool higher_is_better) {
  return percentile(per_window, higher_is_better ? 0.9 : 0.1);
}

double supported_percentile(const std::vector<double>& v, double q, const std::string& name,
                            Metrics& metrics, Ledger& ledger, std::size_t min_beyond) {
  std::size_t beyond = 0;
  const double value = percentile(v, q, &beyond);
  metrics.note_samples(name, v.size());
  ledger.check(beyond >= min_beyond, name + ": only " + std::to_string(beyond) +
                                         " samples beyond the percentile (need " +
                                         std::to_string(min_beyond) + ")");
  return value;
}

void Ledger::note(const std::string& what) {
  if (errors_.size() < 10) errors_.push_back(what);
}

bool Ledger::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    note(what);
  }
  return ok;
}

bool Ledger::check(bool ok, const std::string& what) {
  if (!ok) {
    ++run_checks_failed_;
    note(what);
  }
  return ok;
}

void Ledger::merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  run_checks_failed_ += other.run_checks_failed_;
  for (const std::string& e : other.errors_) note(e);
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"routing.serial.delivered", "count"},
      {"routing.serial.ns_per_hop", "ns"},
      {"routing.sharded.delivered", "count"},
      {"routing.sharded.ns_per_hop", "ns"},
      {"routing.sharded.conserved", "count"},
      {"fault.delivered", "count"},
      {"fault.ns_per_hop", "ns"},
      {"fault.empty_set_tax", "ratio"},
      {"sim.dispatch_us", "us"},
      {"exec.points", "count"},
      {"exec.fsyncs", "count"},
      {"exec.overhead_ms", "ms"},
      {"exec.replay_ms", "ms"},
      {"layout.wires", "count"},
      {"layout.plan_ms", "ms"},
      {"layout.ns_per_wire", "ns"},
      {"layout.materialize_ms", "ms"},
      {"legality.wires", "count"},
      {"legality.thompson_ns_per_wire", "ns"},
      {"legality.multilayer_ns_per_wire", "ns"},
      {"packaging.plans", "count"},
      {"packaging.plan_ms", "ms"},
      {"serve.ping_rtt_us", "us"},
      {"serve.hit_queue_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.key_us", "us"},
      {"serve.envelope_us", "us"},
      {"serve.compute_ms", "ms"},
      {"serve.cold_overhead_ms", "ms"},
      {"serve.hits", "count"},
      {"serve.misses", "count"},
      {"serve.coalesced", "count"},
      {"serve.shed", "count"},
      {"serve.cancelled", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.journal_bytes", "bytes"},
      {"trace.overhead", "ratio"},
  };
  return specs;
}

void complete_layer_metrics(Metrics& metrics) {
  Metrics ordered;
  ordered.samples = metrics.samples;
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    double value = 0.0;
    for (const Metrics::Entry& e : metrics.entries) {
      if (e.name == spec.name) value = e.value;
    }
    ordered.set(spec.name, value, spec.unit);
  }
  metrics = std::move(ordered);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload curve|layout|serve --seed N --seconds S --trace 0|1\n"
               "          --scratch-base DIR [--trace-out FILE] [--setup-only NS]\n",
               argv0);
  return 2;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  std::string five;
  std::string fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.process_start = Clock::now();
  opt.bflyd = PERFBENCH_BFLYD;
  std::string scratch_base;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--setup-only") {
      // steady_clock is CLOCK_MONOTONIC, the launcher's clock.
      opt.setup_only = true;
      opt.process_start = Clock::time_point(std::chrono::duration_cast<Clock::duration>(
          std::chrono::nanoseconds(std::strtoll(v.c_str(), nullptr, 10))));
    } else if (a == "--scratch-base") {
      scratch_base = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload != "curve" && opt.workload != "layout" && opt.workload != "serve") {
    return usage(argv[0]);
  }
  if (scratch_base.empty() || !(opt.seconds > 0.0)) return usage(argv[0]);
  opt.nproc = affinity_cpus();
  // Absolute paths: the workload runs with its scratch directory as cwd.
  if (!opt.trace_out.empty()) opt.trace_out = std::filesystem::absolute(opt.trace_out);

  // Fresh scratch directory, removed before exit whatever happens.
  std::filesystem::create_directories(scratch_base);
  std::string dir_template =
      (std::filesystem::absolute(scratch_base) / (opt.workload + "-XXXXXX")).string();
  if (::mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::filesystem::path scratch = dir_template;
  const std::filesystem::path home = std::filesystem::current_path();
  std::filesystem::current_path(scratch);

  Tracer tracer(opt.trace, opt.process_start);
  Ledger ledger;
  Metrics metrics;
  // Timed runs must see the library with no registry installed: its span
  // vector grows without bound and would make timings drift with run length.
  ledger.check(bfly::obs::registry() == nullptr, "an obs::Registry is installed");
  try {
    if (opt.workload == "curve") {
      run_curve(opt, tracer, ledger, metrics);
    } else if (opt.workload == "layout") {
      run_layout(opt, tracer, ledger, metrics);
    } else {
      run_serve(opt, tracer, ledger, metrics);
    }
  } catch (const std::exception& e) {
    ledger.check(false, std::string("workload aborted: ") + e.what());
  }

  std::filesystem::current_path(home);
  std::vector<std::string> leftovers;
  for (const auto& entry : std::filesystem::directory_iterator(scratch)) {
    leftovers.push_back(entry.path().filename().string());
  }
  ledger.check(leftovers.empty(),
               "workload left files in its scratch directory: " +
                   (leftovers.empty() ? std::string() : leftovers.front()));
  std::filesystem::remove_all(scratch);

  if (opt.trace) {
    complete_layer_metrics(metrics);
    if (!opt.trace_out.empty()) {
      std::filesystem::create_directories(std::filesystem::path(opt.trace_out).parent_path());
      ledger.check(tracer.write_chrome_trace(opt.trace_out),
                   "cannot write spans to " + opt.trace_out);
    }
  }

  bfly::json::Value m = bfly::json::Value::object();
  for (const Metrics::Entry& e : metrics.entries) {
    const bool finite = std::isfinite(e.value);
    ledger.check(finite, e.name + " is not a finite number");
    bfly::json::Value v = bfly::json::Value::object();
    v.set("value", bfly::json::Value::number(finite ? e.value : 0.0));
    v.set("unit", bfly::json::Value::string(e.unit));
    m.set(e.name, std::move(v));
  }
  bfly::json::Value out = bfly::json::Value::object();
  out.set("correct", bfly::json::Value::boolean(ledger.correct()));
  out.set("attempted", bfly::json::Value::number(ledger.attempted()));
  out.set("failed", bfly::json::Value::number(ledger.failed()));
  out.set("metrics", std::move(m));
  bfly::json::Value samples = bfly::json::Value::object();
  for (const auto& [name, n] : metrics.samples) samples.set(name, bfly::json::Value::number(n));
  out.set("samples", std::move(samples));
  bfly::json::Value env = bfly::json::Value::object();
  const unsigned hc = std::thread::hardware_concurrency();
  env.set("nproc", bfly::json::Value::number(static_cast<u64>(opt.nproc)));
  env.set("hardware_concurrency", bfly::json::Value::number(static_cast<u64>(hc)));
  // Sharded sweep points and bflyd sweeps size their worker cap from
  // hardware_concurrency, which the benchmark cannot pass down; flag it.
  env.set("thread_cap_mismatch", bfly::json::Value::boolean(hc != opt.nproc));
  env.set("build_type", bfly::json::Value::string(PERFBENCH_BUILD_TYPE));
  env.set("loadavg", bfly::json::Value::string(load_average()));
  env.set("spans", bfly::json::Value::number(static_cast<u64>(tracer.size())));
  out.set("env", std::move(env));
  bfly::json::Value errors = bfly::json::Value::array();
  for (const std::string& e : ledger.errors()) errors.push_back(bfly::json::Value::string(e));
  out.set("errors", std::move(errors));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
