// Workload "curve": a saturation curve through exec::run_sweep_resumable with
// its checkpoint journal on, in three engine families of similar host time —
// serial pristine points (B_10 and B_12), the same B_12 loads on the sharded
// engine (shard_count 8), and B_10 points against a static ~1% link FaultSet
// plus one empty-FaultSet point paired with its pristine twin.
//
// Per repetition the job list runs once (timed as wall_s).  After each of
// its families, outside wall_s, a burst of light single-point runs (B_4,
// load 0.5, 300 cycles) gives the "hit" class; after the job list, heavy
// ones (B_10, load 0.5, 300 cycles) give the "cold" class.  Both go through
// the sweep path with fresh seeds and no journal: a journal fsync per point
// put the disk's latency into the cold class (its spread across runs was
// twice wall_s's).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common.hpp"
#include "exec/exec.hpp"
#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "routing/routing.hpp"
#include "routing/sharded_sim.hpp"
#include "sim/sweep.hpp"

namespace perfbench {
namespace {

using bfly::SweepOutcome;
using bfly::SweepPoint;

/// Light points after each family: enough for a p99 with ten samples beyond.
constexpr std::size_t kHitsPerBurst = 1000;

struct Family {
  const char* name;
  std::vector<SweepPoint> points;
};

struct CurveInputs {
  std::unique_ptr<bfly::FaultSet> faults;  ///< B_10, each link dead w.p. 1%
  std::unique_ptr<bfly::FaultSet> empty;   ///< B_10, nothing dead
  std::vector<Family> families;            ///< serial, sharded, faulty
  std::size_t twin_pristine = 0;           ///< index in families[0]
  std::size_t twin_faulty = 0;             ///< index in families[2]
  u64 cold_seed = 0;
  u64 hit_seed = 0;
  u64 points() const {
    u64 n = 0;
    for (const Family& f : families) n += f.points.size();
    return n;
  }
};

SweepPoint make_point(int n, double load, u64 cycles, u64 seed) {
  SweepPoint p;
  p.n = n;
  p.offered_load = load;
  p.cycles = cycles;
  p.warmup_cycles = cycles / 10;
  p.seed = seed;
  return p;
}

/// The job list a seed names.  Work is fixed (n, loads, cycles); the seed
/// picks the simulation seeds and the fault set.  The serial and faulty
/// families run on one thread (SweepRunOptions.threads is 1 everywhere, which
/// runs a sweep's points in turn on the calling thread): on more, a neighbour taking a core stalled a fork-join
/// region on its slowest thread, and the driver's peak RSS moved by up to
/// 60% with which pool threads' malloc arenas kept a freed B_12 buffer.
/// The sharded family still spreads each point over the whole pool, so the
/// three families take similar host (CPU) time.
CurveInputs make_inputs(u64 seed) {
  InputRng rng(seed);
  CurveInputs in;
  in.faults = std::make_unique<bfly::FaultSet>(bfly::FaultSet::random_links(10, 0.01, rng.seed()));
  in.empty = std::make_unique<bfly::FaultSet>(10);

  const u64 b10_cycles = 700;
  const u64 b12_cycles = 250;
  const double b10_loads[] = {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
  u64 b10_seed[6];
  for (u64& s : b10_seed) s = rng.seed();
  const u64 b12_seed[2] = {rng.seed(), rng.seed()};
  const auto b10 = [&](int i) { return make_point(10, b10_loads[i], b10_cycles, b10_seed[i]); };

  Family serial{"serial", {}};
  serial.points = {make_point(12, 0.9, b12_cycles, b12_seed[1]), b10(0),
                   make_point(12, 0.3, b12_cycles, b12_seed[0]), b10(5),
                   b10(1), b10(4), b10(2), b10(3)};
  in.twin_pristine = 6;  // b10(2): load 0.5

  Family sharded{"sharded", {}};  // points in turn; each shards across the pool
  for (int i = 0; i < 2; ++i) {
    SweepPoint p = make_point(12, i == 0 ? 0.3 : 0.9, b12_cycles, b12_seed[i]);
    p.shard_count = 8;
    sharded.points.push_back(p);
  }

  Family faulty{"faulty", {}};
  for (const int i : {5, 0, 4, 1, 3, 2}) {
    SweepPoint p = b10(i);
    p.seed ^= 0x5bd1e995;  // distinct traffic from the pristine points
    p.faults = in.faults.get();
    faulty.points.push_back(p);
  }
  SweepPoint twin = b10(2);
  twin.faults = in.empty.get();
  faulty.points.push_back(twin);
  in.twin_faulty = faulty.points.size() - 1;

  in.families = {std::move(serial), std::move(sharded), std::move(faulty)};
  in.cold_seed = rng.seed();
  in.hit_seed = rng.seed();
  return in;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_point(const bfly::SaturationPoint& a, const bfly::SaturationPoint& b) {
  return same_bits(a.offered_load, b.offered_load) && same_bits(a.throughput, b.throughput) &&
         same_bits(a.avg_latency, b.avg_latency) &&
         same_bits(a.per_node_injection, b.per_node_injection) && a.delivered == b.delivered &&
         a.max_queue == b.max_queue && a.dropped_queue_full == b.dropped_queue_full;
}

bool same_outcome(const SweepOutcome& a, const SweepOutcome& b) {
  return same_point(a.point, b.point) && a.tally.delivered == b.tally.delivered &&
         a.tally.dropped == b.tally.dropped && a.tally.misroutes == b.tally.misroutes &&
         a.tally.wraps == b.tally.wraps;
}

/// Properties any correct engine satisfies on an unbounded-queue point:
/// something is delivered, no packet is faster than one cycle per stage, and
/// throughput does not exceed the offered load beyond sampling noise (6
/// sigma of the injection count) plus the packets in flight when the
/// measurement window opened (Little's law: load x latency per row).
std::string point_violation(const SweepPoint& p, const SweepOutcome& o) {
  const bfly::SaturationPoint& s = o.point;
  if (s.delivered == 0) return "nothing delivered";
  if (!(s.avg_latency >= static_cast<double>(p.n))) return "latency below one cycle per stage";
  const double rows = std::ldexp(1.0, p.n);
  const double measured = static_cast<double>(p.cycles - p.warmup_cycles);
  const double slack = 6.0 * std::sqrt(p.offered_load / (rows * measured)) +
                       p.offered_load * s.avg_latency / measured;
  if (s.throughput > p.offered_load + slack) return "throughput above offered load";
  return {};
}

std::string point_name(const SweepPoint& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "B_%d load %.2f%s%s", p.n, p.offered_load,
                p.shard_count > 0 ? " sharded" : "", p.faults != nullptr ? " faulty" : "");
  return buf;
}

u64 count_lines(const std::string& path) {
  std::ifstream in(path);
  u64 lines = 0;
  std::string line;
  while (std::getline(in, line)) lines += line.empty() ? 0 : 1;
  return lines;
}

struct RepResult {
  double wall_s = 0.0;
  std::vector<std::vector<SweepOutcome>> outcomes;  ///< per family
};

/// One pass over the job list, one run_sweep_resumable call per family, all
/// appending to `journal`.  `between()` runs after each family and is not
/// part of wall_s.
RepResult run_job_list(const CurveInputs& in, const std::string& journal, Tracer& tracer,
                       Ledger& ledger, const std::function<void()>& between) {
  RepResult rep;
  double paused_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  ScopedSpan rep_span(tracer, "curve.job_list");
  for (const Family& fam : in.families) {
    bfly::exec::SweepRunOptions o;
    o.threads = 1;
    o.checkpoint_path = journal;
    ScopedSpan span(tracer, "exec.run_sweep_resumable", rep_span.id());
    const bfly::exec::SweepRun run = bfly::exec::run_sweep_resumable(fam.points, o);
    span.finish(fam.points.size());
    ledger.check(run.complete() && run.num_failed == 0 && run.num_replayed == 0,
                 std::string(fam.name) + " family did not complete: " + run.first_error);
    for (std::size_t i = 0; i < fam.points.size(); ++i) {
      const std::string why = point_violation(fam.points[i], run.outcomes[i]);
      ledger.op(why.empty(), point_name(fam.points[i]) + ": " + why);
    }
    rep.outcomes.push_back(run.outcomes);
    const Clock::time_point p0 = Clock::now();
    between();
    paused_s += seconds_since(p0);
  }
  rep.wall_s = seconds_since(t0) - paused_s;
  rep_span.finish(in.points());
  return rep;
}

/// Uniform single-point live runs (B_n, load 0.5) with fresh seeds through
/// the sweep path, without a journal.  Appends per-call seconds.
void live_points(int n, u64 cycles, std::size_t count, u64* next_seed,
                 std::vector<double>& seconds, Ledger& ledger) {
  bfly::exec::SweepRunOptions o;
  o.threads = 1;
  for (std::size_t k = 0; k < count; ++k) {
    const SweepPoint p = make_point(n, 0.5, cycles, (*next_seed)++);
    const Clock::time_point t0 = Clock::now();
    const bfly::exec::SweepRun run = bfly::exec::run_sweep_resumable(std::span(&p, 1), o);
    seconds.push_back(seconds_since(t0));
    // The checks allocate nothing between the timed calls, so the harness
    // leaves the library's heap as it found it.
    ledger.op(run.complete() && run.num_replayed == 0 &&
                  point_violation(p, run.outcomes[0]).empty(),
              "live point did not complete or violates its invariants");
  }
}

/// Whole-run checks on one complete rep: the empty-set twin equals its
/// pristine twin bitwise, every sharded ledger conserves (and the sharded
/// engine called directly equals the sweep's outcome), and replaying the
/// complete journal returns the live outcomes bitwise.
void check_rep(const CurveInputs& in, const RepResult& rep, const std::string& journal,
               unsigned nproc, Ledger& ledger) {
  // The faulty engine also fills a tally; the pristine engine leaves it zero.
  ledger.op(same_point(rep.outcomes[0][in.twin_pristine].point,
                       rep.outcomes[2][in.twin_faulty].point),
            "empty FaultSet point differs from its pristine twin");
  const Family& sharded = in.families[1];
  for (std::size_t i = 0; i < sharded.points.size(); ++i) {
    const SweepPoint& p = sharded.points[i];
    bfly::ShardedOptions so;
    so.shard_count = p.shard_count;
    so.threads = nproc;
    so.warmup_cycles = p.warmup_cycles;
    so.queue_capacity = p.queue_capacity;
    so.routing = p.routing;
    const bfly::ShardedSaturationPoint sp =
        bfly::simulate_saturation_sharded(p.n, p.offered_load, p.cycles, p.seed, so);
    ledger.op(sp.conserved() && same_point(sp.point, rep.outcomes[1][i].point),
              point_name(p) + ": ledger not conserved or differs from the sweep");
  }
  for (std::size_t f = 0; f < in.families.size(); ++f) {
    bfly::exec::SweepRunOptions o;
    o.threads = 1;
    o.checkpoint_path = journal;
    const bfly::exec::SweepRun replay = bfly::exec::run_sweep_resumable(in.families[f].points, o);
    bool same = replay.num_replayed == in.families[f].points.size();
    for (std::size_t i = 0; same && i < replay.outcomes.size(); ++i) {
      same = same_outcome(replay.outcomes[i], rep.outcomes[f][i]);
    }
    ledger.op(same, std::string(in.families[f].name) + " journal replay differs from live run");
  }
}

bool same_rep(const RepResult& a, const RepResult& b) {
  for (std::size_t f = 0; f < a.outcomes.size(); ++f) {
    for (std::size_t i = 0; i < a.outcomes[f].size(); ++i) {
      if (!same_outcome(a.outcomes[f][i], b.outcomes[f][i])) return false;
    }
  }
  return true;
}

/// Set-up: build the seeded job list and fault sets, then run one small
/// point through the sweep, which starts the shared pool and warms the code.
CurveInputs set_up(const Options& opt, Ledger& ledger) {
  CurveInputs in = make_inputs(opt.seed);
  const SweepPoint warm = make_point(8, 0.5, 2000, in.cold_seed ^ 0xabcdef);
  bfly::exec::SweepRunOptions o;
  o.threads = 1;
  const bfly::exec::SweepRun run = bfly::exec::run_sweep_resumable(std::span(&warm, 1), o);
  const std::string why =
      run.complete() ? point_violation(warm, run.outcomes[0]) : "did not complete";
  ledger.op(why.empty(), "set-up point: " + why);
  return in;
}

struct Paired {
  double diff_s;  ///< median over rounds of b - a
  double ratio;   ///< median over rounds of b / a
};

/// Times `a` and `b` (each returns its own seconds) over `rounds` rounds,
/// alternating which runs first, and takes medians of the per-round pairs.
Paired paired(int rounds, const std::function<double()>& a, const std::function<double()>& b) {
  std::vector<double> diff;
  std::vector<double> ratio;
  for (int r = 0; r < rounds; ++r) {
    double ta = 0.0;
    double tb = 0.0;
    if (r % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    diff.push_back(tb - ta);
    ratio.push_back(tb / ta);
  }
  return {median(diff), median(ratio)};
}

/// Per-layer probes for the traced run.  Each calls a layer's public
/// function directly on the workload's own inputs.
void layer_probes(const Options& opt, const CurveInputs& in, Tracer& tracer, Ledger& ledger,
                  Metrics& metrics) {
  ScopedSpan root(tracer, "curve.layer_probes");
  // Routing and fault engines, called directly point by point.
  double serial_s = 0.0;
  double serial_hops = 0.0;
  u64 serial_delivered = 0;
  for (const SweepPoint& p : in.families[0].points) {
    ScopedSpan s(tracer, "routing.simulate_saturation", root.id());
    const bfly::SaturationPoint r =
        bfly::simulate_saturation(p.n, p.offered_load, p.cycles, p.seed, p.warmup_cycles);
    serial_s += s.finish(r.delivered);
    serial_delivered += r.delivered;
    serial_hops += static_cast<double>(r.delivered) * p.n;
  }
  double sharded_s = 0.0;
  double sharded_hops = 0.0;
  u64 sharded_delivered = 0;
  u64 conserved = 0;
  for (const SweepPoint& p : in.families[1].points) {
    bfly::ShardedOptions so;
    so.shard_count = p.shard_count;
    so.threads = opt.nproc;
    so.warmup_cycles = p.warmup_cycles;
    ScopedSpan s(tracer, "routing.simulate_saturation_sharded", root.id());
    const bfly::ShardedSaturationPoint r =
        bfly::simulate_saturation_sharded(p.n, p.offered_load, p.cycles, p.seed, so);
    sharded_s += s.finish(r.point.delivered);
    sharded_delivered += r.point.delivered;
    sharded_hops += static_cast<double>(r.point.delivered) * p.n;
    conserved += r.conserved() ? 1 : 0;
  }
  ledger.check(conserved == in.families[1].points.size(), "sharded ledger not conserved");
  double fault_s = 0.0;
  double fault_hops = 0.0;
  u64 fault_delivered = 0;
  for (std::size_t i = 0; i < in.families[2].points.size(); ++i) {
    if (i == in.twin_faulty) continue;
    const SweepPoint& p = in.families[2].points[i];
    ScopedSpan s(tracer, "fault.simulate_saturation_faulty", root.id());
    const bfly::FaultSaturationPoint r = bfly::simulate_saturation_faulty(
        p.n, p.offered_load, p.cycles, p.seed, *p.faults, p.routing, p.warmup_cycles);
    fault_s += s.finish(r.point.delivered);
    fault_delivered += r.point.delivered;
    fault_hops += static_cast<double>(r.point.delivered) * p.n;
  }
  metrics.set("routing.serial.delivered", static_cast<double>(serial_delivered), "count");
  metrics.set("routing.serial.ns_per_hop", serial_s * 1e9 / serial_hops, "ns");
  metrics.set("routing.sharded.delivered", static_cast<double>(sharded_delivered), "count");
  metrics.set("routing.sharded.ns_per_hop", sharded_s * 1e9 / sharded_hops, "ns");
  metrics.set("routing.sharded.conserved", static_cast<double>(conserved), "count");
  metrics.set("fault.delivered", static_cast<double>(fault_delivered), "count");
  metrics.set("fault.ns_per_hop", fault_s * 1e9 / fault_hops, "ns");

  // Empty-set tax: faulty engine on the empty set vs the pristine engine on
  // the twin point.
  {
    const SweepPoint& p = in.families[2].points[in.twin_faulty];
    const Paired pair = paired(
        6,
        [&] {
          ScopedSpan s(tracer, "routing.simulate_saturation", root.id());
          const auto r = bfly::simulate_saturation(p.n, p.offered_load, p.cycles, p.seed,
                                                   p.warmup_cycles);
          return s.finish(r.delivered);
        },
        [&] {
          ScopedSpan s(tracer, "fault.simulate_saturation_faulty", root.id());
          const auto r = bfly::simulate_saturation_faulty(p.n, p.offered_load, p.cycles, p.seed,
                                                          *in.empty, p.routing, p.warmup_cycles);
          return s.finish(r.point.delivered);
        });
    metrics.set("fault.empty_set_tax", pair.ratio, "ratio");
  }

  // Sweep dispatch: run_sweep_point minus the direct engine call on the
  // lightest B_10 pristine point.
  {
    const SweepPoint* light = nullptr;
    for (const SweepPoint& p : in.families[0].points) {
      if (p.n == 10 && (light == nullptr || p.offered_load < light->offered_load)) light = &p;
    }
    const SweepPoint& p = *light;
    const Paired pair = paired(
        8,
        [&] {
          ScopedSpan s(tracer, "routing.simulate_saturation", root.id());
          const auto r = bfly::simulate_saturation(p.n, p.offered_load, p.cycles, p.seed,
                                                   p.warmup_cycles);
          return s.finish(r.delivered);
        },
        [&] {
          ScopedSpan s(tracer, "sim.run_sweep_point", root.id());
          const SweepOutcome o = bfly::run_sweep_point(p, nullptr, nullptr, nullptr);
          return s.finish(o.point.delivered);
        });
    metrics.set("sim.dispatch_us", pair.diff_s * 1e6, "us");
  }

  // Exec overhead: the journaled resumable sweep vs saturation_sweep on the
  // serial family; and the cost of replaying a complete journal.
  {
    const Family& fam = in.families[0];
    u64 fsyncs = 0;
    const Paired pair = paired(
        3,
        [&] {
          ScopedSpan s(tracer, "sim.saturation_sweep", root.id());
          const auto outcomes = bfly::saturation_sweep(fam.points, 1);
          return s.finish(outcomes.size());
        },
        [&] {
          bfly::exec::SweepRunOptions o;
          o.threads = 1;
          o.checkpoint_path = "probe.ckpt";
          std::filesystem::remove(o.checkpoint_path);
          ScopedSpan s(tracer, "exec.run_sweep_resumable", root.id());
          const auto run = bfly::exec::run_sweep_resumable(fam.points, o);
          const double t = s.finish(run.num_completed);
          fsyncs = count_lines(o.checkpoint_path);
          return t;
        });
    const double points = static_cast<double>(fam.points.size());
    metrics.set("exec.points", points, "count");
    metrics.set("exec.fsyncs", static_cast<double>(fsyncs), "count");
    metrics.set("exec.overhead_ms", pair.diff_s * 1e3 / points, "ms");
    std::vector<double> replay_ms;
    for (int k = 0; k < 5; ++k) {
      bfly::exec::SweepRunOptions o;
      o.threads = 1;
      o.checkpoint_path = "probe.ckpt";
      ScopedSpan s(tracer, "exec.replay", root.id());
      const auto run = bfly::exec::run_sweep_resumable(fam.points, o);
      replay_ms.push_back(s.finish(run.num_replayed) * 1e3);
      ledger.op(run.num_replayed == fam.points.size(), "probe replay did not replay every point");
    }
    metrics.set("exec.replay_ms", median(replay_ms), "ms");
    std::filesystem::remove("probe.ckpt");
  }
}

}  // namespace

void run_curve(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics) {
  const CurveInputs in = set_up(opt, ledger);
  if (opt.setup_only) {
    metrics.set("setup_s", seconds_since(opt.process_start), "s");
    return;
  }

  Tracer off(false, opt.process_start);
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> hit_us;
  std::vector<double> hit_p50_by_burst;
  std::vector<double> hit_p99_by_burst;
  std::vector<double> cold_ms;
  std::vector<double> cold_p50_by_rep;
  u64 next_cold_seed = in.cold_seed;
  u64 next_hit_seed = in.hit_seed;
  RepResult first;
  const std::string journal = "curve.ckpt";
  // Untraced runs measure for the whole window; traced runs spend 40% of it
  // alternating traced and untraced reps, then run the layer probes.
  const double window = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = seconds_since(start);
    const bool enough = opt.trace ? rep >= 5
                                  : hit_us.size() >= 2200 && cold_ms.size() >= 60;
    if ((elapsed >= window && enough) || elapsed > 150.0) break;
    const bool traced_rep = opt.trace && rep % 2 == 1;
    std::filesystem::remove(journal);
    // Hit bursts between the families spread the hit class over the whole
    // run, so its windows sample the machine's speed swings.
    const auto hits = [&] {
      if (opt.trace) return;
      std::vector<double> h;
      h.reserve(kHitsPerBurst);
      live_points(4, 300, kHitsPerBurst, &next_hit_seed, h, ledger);
      for (double& x : h) x *= 1e6;
      hit_p50_by_burst.push_back(median(h));
      std::size_t beyond = 0;
      hit_p99_by_burst.push_back(percentile(h, 0.99, &beyond));
      ledger.check(beyond >= 10, "hit_p99_us: a burst has fewer than ten samples beyond it");
      hit_us.insert(hit_us.end(), h.begin(), h.end());
    };
    RepResult r = run_job_list(in, journal, traced_rep ? tracer : off, ledger, hits);
    // A traced run compares traced with untraced reps after the first,
    // which also warms caches and pages.
    if (!opt.trace || rep > 0) (traced_rep ? traced_walls : walls).push_back(r.wall_s);
    if (!opt.trace) {
      std::vector<double> rep_colds;
      live_points(10, 300, 8, &next_cold_seed, rep_colds, ledger);
      for (double& x : rep_colds) x *= 1e3;
      cold_p50_by_rep.push_back(median(rep_colds));
      cold_ms.insert(cold_ms.end(), rep_colds.begin(), rep_colds.end());
    }
    if (rep == 0) {
      first = std::move(r);
    } else {
      ledger.op(same_rep(first, r), "rep outcomes differ from the first rep");
    }
  }
  check_rep(in, first, journal, opt.nproc, ledger);
  std::filesystem::remove(journal);

  if (opt.trace) {
    layer_probes(opt, in, tracer, ledger, metrics);
    metrics.set("trace.overhead", median(traced_walls) / median(walls), "ratio");
    return;
  }
  const double wall = quiet_quantile(walls);
  metrics.note_samples("wall_s", walls.size());
  metrics.set("wall_s", wall, "s");
  metrics.set("req_per_s", static_cast<double>(in.points()) / wall, "1/s");
  // The p50s check the support rule on the pooled samples and report the
  // quiet quantile of the medians of each hit burst and each rep's colds;
  // hit_p99_us is the quiet quantile of the bursts' p99s.
  supported_percentile(hit_us, 0.50, "hit_p50_us", metrics, ledger);
  metrics.set("hit_p50_us", quiet_quantile(hit_p50_by_burst), "us");
  metrics.note_samples("hit_p99_us", hit_us.size());
  metrics.note_samples("hit_p99_us.bursts", hit_p99_by_burst.size());
  metrics.set("hit_p99_us", quiet_quantile(hit_p99_by_burst), "us");
  supported_percentile(cold_ms, 0.50, "cold_p50_ms", metrics, ledger);
  metrics.set("cold_p50_ms", quiet_quantile(cold_p50_by_rep), "ms");
  metrics.set("peak_rss_mb", vm_hwm_mb(), "MiB");
  metrics.set("ok_share", ledger.ok_share(), "share");
}

}  // namespace perfbench
