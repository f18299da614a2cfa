// Experiment E11 (Sec. 3/4 scalability): node-size sweep.  Any node side
// W = o(sqrt(N)/(L log N)) leaves the leading constants of area and wire
// length unchanged; larger nodes start to dominate.
//
// Plus the packet-engine scalability study: one large B_12 saturation curve
// on the cycle-parallel sharded engine (routing/sharded_sim.hpp).  The curve
// is a pure function of (n, load, cycles, seed, shard_count) — bitwise
// machine-independent — so it is exported as an exact-gated artifact together
// with its conservation ledger.
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

// The sharded study's fixed operating point.  shard_count is pinned (never
// derived from the machine) so every runner reproduces the same bits.
constexpr int kShardN = 12;
constexpr u64 kShardCount = 8;
constexpr u64 kShardCycles = 1200;
constexpr u64 kShardWarmup = 200;
constexpr u64 kShardSeed = 2026;

void print_node_size_sweep(int n, int L) {
  std::fprintf(stderr, "=== E11: node-size scalability of B_%d at L=%d ===\n", n, L);
  std::fprintf(stderr, "%6s %16s %12s %12s %12s\n", "W", "area", "area/W=4", "max wire", "wire/W=4");
  ButterflyLayoutOptions base;
  base.layers = L;
  const LayoutMetrics m0 = ButterflyLayoutPlan(ButterflyLayoutPlan::choose_parameters(n), base)
                               .metrics();
  for (const i64 w : {4, 8, 16, 32, 64}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    opt.node_side = w;
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n), opt);
    const LayoutMetrics m = plan.metrics();
    std::fprintf(stderr, "%6lld %16lld %12.3f %12lld %12.3f\n", static_cast<long long>(w),
                static_cast<long long>(m.area),
                static_cast<double>(m.area) / static_cast<double>(m0.area),
                static_cast<long long>(m.max_wire_length),
                static_cast<double>(m.max_wire_length) /
                    static_cast<double>(m0.max_wire_length));
  }
  std::fprintf(stderr, "paper: for W = o(sqrt(N)/(L log N)) (here: W << 2^{n/3+...}) the area\n");
  std::fprintf(stderr, "       ratio stays near 1; once W 2^{k1} rivals the channel width the\n");
  std::fprintf(stderr, "       node grid dominates and area grows ~ W^2.\n\n");
}

/// The sharded B_12 saturation curve with its conservation ledger.  Exports
/// two exact-gated artifacts: "sharded_curve" (the per-load statistics, all
/// deterministic) and "sharded_conservation_pass" (1 iff every point's
/// offered == delivered + dropped + in-flight held exactly).
void print_sharded_curve(std::size_t threads, bfly::bench::BenchSession* session) {
  std::fprintf(stderr, "=== sharded saturation curve: B_%d, %llu shards ===\n", kShardN,
               static_cast<unsigned long long>(kShardCount));
  std::fprintf(stderr, "%8s %12s %12s %12s %10s %12s %10s\n", "load", "throughput",
               "avg latency", "delivered", "dropped", "in flight", "conserved");
  json::Value curve = json::Value::array();
  bool all_conserved = true;
  for (const double load : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    ShardedOptions opt;
    opt.shard_count = kShardCount;
    opt.threads = threads;
    opt.warmup_cycles = kShardWarmup;
    const ShardedSaturationPoint r =
        simulate_saturation_sharded(kShardN, load, kShardCycles, kShardSeed, opt);
    all_conserved = all_conserved && r.conserved();
    std::fprintf(stderr, "%8.2f %12.4f %12.2f %12llu %10llu %12llu %10s\n", load,
                 r.point.throughput, r.point.avg_latency,
                 static_cast<unsigned long long>(r.point.delivered),
                 static_cast<unsigned long long>(r.dropped_total),
                 static_cast<unsigned long long>(r.in_flight_end),
                 r.conserved() ? "yes" : "NO");
    json::Value pt = json::Value::object();
    pt.set("load", json::Value::number(load));
    pt.set("throughput", json::Value::number(r.point.throughput));
    pt.set("avg_latency", json::Value::number(r.point.avg_latency));
    pt.set("delivered", json::Value::number(r.point.delivered));
    pt.set("max_queue", json::Value::number(r.point.max_queue));
    pt.set("offered_total", json::Value::number(r.offered_total));
    pt.set("delivered_total", json::Value::number(r.delivered_total));
    pt.set("dropped_total", json::Value::number(r.dropped_total));
    pt.set("in_flight_end", json::Value::number(r.in_flight_end));
    curve.push_back(std::move(pt));
  }
  std::fprintf(stderr, "curve is a pure function of (n, load, cycles, seed, shard_count):\n");
  std::fprintf(stderr, "       every runner and thread count reproduces these bits exactly.\n\n");
  session->artifact("sharded_curve", std::move(curve));
  session->artifact("sharded_conservation_pass", all_conserved ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bfly::bench::threads_override(argc, argv);
  bfly::bench::BenchSession session("bench_scalability");
  session.threads = threads;
  session.config("threads", static_cast<double>(threads));
  session.config("shard_n", kShardN);
  session.config("shard_count", static_cast<double>(kShardCount));
  session.config("shard_cycles", static_cast<double>(kShardCycles));
  session.config("shard_seed", static_cast<double>(kShardSeed));
  print_node_size_sweep(12, 2);
  print_node_size_sweep(12, 4);
  print_sharded_curve(threads, &session);
  session.emit_report();
  return 0;
}
