// Experiment E13 (+ E6 lower bound): random routing on butterflies.
// Saturation throughput per network node is Theta(1/log R), which is the
// quantity behind Theorem 2.1's Omega(M/log R) pin bound.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/bfly.hpp"
#include "obs/timeseries.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace bfly;

constexpr double kCurveLoads[] = {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};

std::vector<SweepPoint> curve_points(int n, u64 telemetry_budget, u64 flight_budget) {
  std::vector<SweepPoint> pts;
  for (const double load : kCurveLoads) {
    SweepPoint p;
    p.n = n;
    p.offered_load = load;
    p.cycles = 4000;
    p.seed = 2026;
    p.warmup_cycles = 500;
    p.telemetry_budget = telemetry_budget;
    // Flight tracing on the load-0.5 point only: the same representative
    // point the Little's-law check reads, comfortably under saturation so
    // most sampled packets terminate as deliveries.
    if (load == 0.5) p.flight_budget = flight_budget;
    pts.push_back(p);
  }
  return pts;
}

std::vector<SweepOutcome> print_saturation_curve(int n, bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "=== E13: saturation curve of B_%d (uniform random traffic) ===\n", n);
  std::fprintf(stderr, "%10s %12s %12s %14s %10s\n", "offered", "throughput", "latency", "inj/node",
              "max queue");
  // One batched sweep through the resilient driver: outcomes stay bitwise
  // identical to the historical per-load simulate_saturation calls, and a
  // killed bench resumes from $BFLY_CHECKPOINT_DIR instead of starting over.
  // Telemetry is on (128-sample budget) — the probe never changes outcomes,
  // and the collected series feed the Little's-law self-check below.
  const std::vector<SweepPoint> pts = curve_points(n, 128, 64);
  std::vector<SweepOutcome> outcomes = session->resilient_sweep("curve", pts);
  for (const SweepOutcome& o : outcomes) {
    const SaturationPoint& p = o.point;
    std::fprintf(stderr, "%10.2f %12.4f %12.2f %14.4f %10llu\n", p.offered_load, p.throughput,
                p.avg_latency, p.per_node_injection,
                static_cast<unsigned long long>(p.max_queue));
  }
  std::fprintf(stderr, "\n");
  return outcomes;
}

/// Little's-law self-check (L = lambda * W) on one telemetered curve point,
/// printed and exported as a 1.0 / 0.0 artifact stat the baseline gate
/// matches exactly.  Runs on the load-0.5 point: comfortably under
/// saturation, so the queueing system actually reaches the steady state the
/// law assumes (at load 1.0 drops dominate and no steady window exists).
void check_littles_law(const std::vector<SweepOutcome>& curve,
                       bfly::bench::BenchSession* session) {
  const SweepOutcome* chosen = nullptr;
  for (const SweepOutcome& o : curve) {
    if (o.point.offered_load == 0.5 && !o.timeseries.empty()) chosen = &o;
  }
  if (chosen == nullptr) return;  // full replay: nothing measured
  const obs::LittlesLawCheck check = obs::littles_law_check(chosen->timeseries);
  std::fprintf(stderr, "--- Little's law self-check (B_8, load 0.5, steady-state window) ---\n");
  std::fprintf(stderr, "%12s %12s %12s %12s %8s\n", "L", "lambda", "W", "rel error", "pass");
  std::fprintf(stderr, "%12.3f %12.4f %12.3f %12.4f %8s\n\n", check.l, check.lambda, check.w,
               check.rel_error, check.applicable && check.pass ? "yes" : "NO");
  session->artifact("timeseries_littles_law_pass",
                    check.applicable && check.pass ? 1.0 : 0.0);
  // The series itself rides along as the report's v2 "timeseries" block.
  session->timeseries(chosen->timeseries.to_json());
}

/// Flight-recorder self-check on the curve's flight-enabled point: every
/// delivered trace must decompose exactly (queue_wait + transit + detour ==
/// latency, u64 arithmetic — decompose_flight throws on any imbalance), and
/// the result is exported as a 1.0 / 0.0 artifact the baseline gate matches
/// exactly.  The traces ride along as the report's v2 "flight" block, and
/// when $BFLY_FLIGHT_TRACE_FILE names a path the Perfetto-compatible Chrome
/// trace export is written there (CI uploads it as an artifact).
void check_flight_decomposition(const std::vector<SweepOutcome>& curve,
                                bfly::bench::BenchSession* session) {
  const SweepOutcome* chosen = nullptr;
  for (const SweepOutcome& o : curve) {
    if (o.point.offered_load == 0.5 && !o.flight.empty()) chosen = &o;
  }
  if (chosen == nullptr) return;  // full replay: nothing recorded
  const obs::FlightRecorder& rec = chosen->flight;
  u64 delivered = 0;
  u64 total_wait = 0;
  bool pass = true;
  try {
    for (const obs::FlightTrace& t : rec.traces()) {
      if (t.outcome != obs::FlightOutcome::kDelivered) continue;
      const obs::FlightDecomposition d = obs::decompose_flight(t, rec.n());
      if (d.queue_wait + d.transit + d.detour != d.latency) pass = false;
      ++delivered;
      total_wait += d.queue_wait;
    }
  } catch (const std::exception&) {
    pass = false;
  }
  if (delivered == 0) pass = false;
  std::fprintf(stderr, "--- flight decomposition self-check (B_8, load 0.5, %zu traces) ---\n",
               rec.traces().size());
  std::fprintf(stderr, "%12s %12s %14s %8s\n", "delivered", "wait sum", "wait/packet", "pass");
  std::fprintf(stderr, "%12llu %12llu %14.2f %8s\n\n",
               static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(total_wait),
               delivered > 0 ? static_cast<double>(total_wait) / static_cast<double>(delivered)
                             : 0.0,
               pass ? "yes" : "NO");
  session->artifact("flight_decomposition_pass", pass ? 1.0 : 0.0);
  session->flight(rec.to_json());
  if (const char* path = std::getenv("BFLY_FLIGHT_TRACE_FILE")) {
    if (path[0] != '\0') {
      util::atomic_write_file(path, obs::flight_chrome_trace_json(rec.traces(), rec.rows()));
    }
  }
}

void print_injection_scaling(bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "--- per-node injection at saturation vs 1/(n+1) = Theta(1/log R) ---\n");
  std::fprintf(stderr, "%4s %14s %12s %10s\n", "n", "inj/node", "1/(n+1)", "ratio");
  std::vector<SweepPoint> pts;
  for (const int n : {4, 6, 8, 10}) {
    SweepPoint p;
    p.n = n;
    p.offered_load = 1.0;
    p.cycles = 3000;
    p.seed = 7;
    p.warmup_cycles = 500;
    pts.push_back(p);
  }
  const std::vector<SweepOutcome> outcomes = session->resilient_sweep("injection", pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const int n = pts[i].n;
    const double bound = 1.0 / (n + 1);
    std::fprintf(stderr, "%4d %14.4f %12.4f %10.3f\n", n, outcomes[i].point.per_node_injection,
                bound, outcomes[i].point.per_node_injection / bound);
  }
  std::fprintf(stderr, "paper: the maximum per-node injection rate is Theta(1/log R); the ratio\n");
  std::fprintf(stderr, "       to 1/(n+1) stays within a constant across n.\n\n");
}

void print_load_balance() {
  std::fprintf(stderr, "--- link-load balance under uniform random routing ---\n");
  std::fprintf(stderr, "%4s %12s %12s %12s\n", "n", "avg load", "max load", "imbalance");
  for (const int n : {6, 8, 10, 12}) {
    const LoadCensus c = measure_link_loads(n, 2'000'000, 99);
    std::fprintf(stderr, "%4d %12.1f %12llu %12.3f\n", n, c.avg_link_load,
                static_cast<unsigned long long>(c.max_link_load), c.imbalance);
  }
  std::fprintf(stderr, "paper: traffic is balanced within a constant factor between the most\n");
  std::fprintf(stderr, "       heavily used links and the average.\n\n");
}

void print_congestion_table() {
  std::fprintf(stderr, "--- worst-case vs random permutation congestion (greedy bit-fixing) ---\n");
  std::fprintf(stderr, "%4s %14s %14s %14s\n", "n", "bit-reversal", "random perm", "Benes");
  Xoshiro256 rng(17);
  for (const int n : {6, 8, 10, 12}) {
    std::vector<u64> perm(pow2(n));
    for (u64 i = 0; i < perm.size(); ++i) perm[i] = i;
    for (u64 i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
    std::fprintf(stderr, "%4d %14llu %14llu %14d\n", n,
                static_cast<unsigned long long>(bit_reversal_congestion(n)),
                static_cast<unsigned long long>(permutation_congestion(n, perm)), 1);
  }
  std::fprintf(stderr, "greedy butterfly routing hits Theta(sqrt(R)) congestion on bit-reversal;\n");
  std::fprintf(stderr, "a Benes fabric (looping algorithm) routes ANY permutation at congestion 1.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bfly::bench::threads_override(argc, argv);
  bfly::bench::BenchSession session("bench_routing");
  session.threads = threads;
  session.config("threads", static_cast<double>(threads));
  session.config("saturation_n", 8);
  session.config("saturation_cycles", 4000);
  session.config("census_packets", 2'000'000);
  session.config("telemetry_budget", 128);
  session.config("flight_budget", 64);
  const std::vector<SweepOutcome> curve = print_saturation_curve(8, &session);
  check_littles_law(curve, &session);
  check_flight_decomposition(curve, &session);
  print_injection_scaling(&session);
  print_load_balance();
  print_congestion_table();
  session.artifact_percentiles("routing.latency_cycles", "routing.latency_cycles");
  // Pool utilization gauges: idempotent last-write-wins snapshots of the
  // shared pool's counters, taken after all parallel work has finished.
  const ThreadPool::Stats pool = ThreadPool::shared().stats();
  obs::set(obs::get_gauge("pool.tasks_executed"), static_cast<double>(pool.tasks_executed));
  obs::set(obs::get_gauge("pool.assists"), static_cast<double>(pool.assists));
  obs::set(obs::get_gauge("pool.workers"), static_cast<double>(pool.worker_tasks.size()));
  u64 busy_us = 0;
  for (const u64 us : pool.worker_busy_us) busy_us += us;
  obs::set(obs::get_gauge("pool.busy_us"), static_cast<double>(busy_us));
  session.emit_report();
  return 0;
}
