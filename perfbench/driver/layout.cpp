// Workload "layout": the paper-reproduction pipeline in three parts of
// similar host time —
//   * streamed metrics: ButterflyLayoutPlan + metrics() for B_12 at
//     L in {2, 4, 8} with block folding off and on, plus B_14 and B_16;
//   * legality: materialize() + check_thompson / check_multilayer at B_10
//     and B_12;
//   * packaging: plan_hierarchical for B_9 (the Section 5 example), B_12,
//     B_14 and B_16.
// Between the jobs of each repetition the workload also times its uniform
// query classes: "hit" re-checks a small (B_4) layout built during set-up
// with the multilayer checker, "cold" builds, materializes and checks B_8.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "common.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/legality.hpp"
#include "packaging/hierarchical.hpp"

namespace perfbench {
namespace {

using bfly::ButterflyLayoutOptions;
using bfly::ButterflyLayoutPlan;
using bfly::LayoutMetrics;

constexpr std::size_t kHitBlock = 1000;  ///< hit_p99_us: samples per block

struct LayoutJob {
  int n;
  int layers;
  bool fold;
  bool thompson;  ///< legality jobs: also run the Thompson checker (L = 2 only)
};

struct LayoutInputs {
  std::vector<LayoutJob> streamed;
  std::vector<LayoutJob> legality;
  std::vector<int> packaging;
  bfly::Layout hit_layout;  ///< B_4 (L 4), built in set-up; the hit class re-checks it
  int cold_layers = 4;  ///< the B_8 verify class
  u64 jobs() const { return streamed.size() + legality.size() + packaging.size(); }
};

/// The paper's constructions are the inputs, so the seed changes nothing
/// here: even reordering the jobs moved the query classes' timings by
/// shifting the allocator's state.
LayoutInputs make_inputs() {
  LayoutInputs in;
  for (const int layers : {2, 4, 8}) {
    for (const bool fold : {false, true}) in.streamed.push_back({12, layers, fold, false});
  }
  in.streamed.push_back({14, 8, true, false});
  in.streamed.push_back({16, 2, false, false});
  in.legality = {{10, 2, false, true}, {12, 4, true, false}};
  in.packaging = {9, 12, 14, 16};
  return in;
}

ButterflyLayoutOptions options_for(int layers, bool fold) {
  ButterflyLayoutOptions o;
  o.layers = layers;
  o.fold_block_channels = fold;
  return o;
}

std::string job_name(const LayoutJob& j) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "B_%d L=%d%s", j.n, j.layers, j.fold ? " fold" : "");
  return buf;
}

/// Closed forms every layout of B_n must meet: (n+1) 2^n nodes and
/// 2 n 2^n links, one wire each.
bool closed_forms_hold(int n, const LayoutMetrics& m) {
  const u64 rows = u64{1} << n;
  return m.num_nodes == static_cast<u64>(n + 1) * rows &&
         m.num_wires == 2 * static_cast<u64>(n) * rows;
}

bool same_metrics(const LayoutMetrics& a, const LayoutMetrics& b) {
  return a.width == b.width && a.height == b.height && a.area == b.area &&
         a.max_wire_length == b.max_wire_length && a.total_wire_length == b.total_wire_length &&
         a.num_layers == b.num_layers && a.volume == b.volume && a.num_nodes == b.num_nodes &&
         a.num_wires == b.num_wires;
}

/// Layer timings of one repetition (seconds, and the work they cover).
struct RepTimes {
  double wall_s = 0.0;
  double plan_s = 0.0;
  double stream_s = 0.0;
  u64 streamed_wires = 0;
  double materialize_s = 0.0;
  double thompson_s = 0.0;
  u64 thompson_wires = 0;
  double multilayer_s = 0.0;
  u64 checked_wires = 0;
  double packaging_s = 0.0;
  u64 plans = 0;
  std::vector<LayoutMetrics> results;  ///< streamed metrics, in job order
};

/// One pass over the job list.  `between(k)` runs after job k and is not
/// part of wall_s.
RepTimes run_job_list(const LayoutInputs& in, Tracer& tracer, Ledger& ledger,
                      const std::function<void(std::size_t)>& between) {
  RepTimes t;
  const Clock::time_point t0 = Clock::now();
  ScopedSpan rep(tracer, "layout.job_list");
  double paused_s = 0.0;
  std::size_t job = 0;
  const auto next_job = [&] {
    const Clock::time_point p0 = Clock::now();
    between(job++);
    paused_s += seconds_since(p0);
  };
  for (const LayoutJob& j : in.streamed) {
    ScopedSpan plan_span(tracer, "layout.plan", rep.id());
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(j.n),
                                   options_for(j.layers, j.fold));
    t.plan_s += plan_span.finish(1);
    ScopedSpan stream_span(tracer, "layout.metrics", rep.id());
    const LayoutMetrics m = plan.metrics();
    t.stream_s += stream_span.finish(m.num_wires);
    t.streamed_wires += m.num_wires;
    ledger.op(closed_forms_hold(j.n, m), job_name(j) + ": node/wire counts off the closed form");
    t.results.push_back(m);
    next_job();
  }
  for (const LayoutJob& j : in.legality) {
    ScopedSpan plan_span(tracer, "layout.plan", rep.id());
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(j.n),
                                   options_for(j.layers, j.fold));
    t.plan_s += plan_span.finish(1);
    ScopedSpan mat_span(tracer, "layout.materialize", rep.id());
    const bfly::Layout layout = plan.materialize();
    const u64 wires = layout.wires().size();
    t.materialize_s += mat_span.finish(wires);
    t.checked_wires += wires;
    bool legal = true;
    if (j.thompson) {
      ScopedSpan s(tracer, "legality.check_thompson", rep.id());
      legal = bfly::check_thompson(layout).ok && legal;
      t.thompson_s += s.finish(wires);
      t.thompson_wires += wires;
    }
    ScopedSpan s(tracer, "legality.check_multilayer", rep.id());
    legal = bfly::check_multilayer(layout).ok && legal;
    t.multilayer_s += s.finish(wires);
    ledger.op(legal, job_name(j) + ": layout reported illegal");
    next_job();
  }
  for (const int n : in.packaging) {
    ScopedSpan s(tracer, "packaging.plan_hierarchical", rep.id());
    const bfly::HierarchicalPlan plan = bfly::plan_hierarchical(n, bfly::ChipConstraints{});
    t.packaging_s += s.finish(plan.num_chips);
    ++t.plans;
    // Section 5: B_9 on 64-pin, side-20 chips packs into 64 chips on a
    // 409,600-unit board at L = 2.
    const bool ok = n != 9 || (plan.num_chips == 64 && plan.board_area(2) == 409600);
    ledger.op(ok && plan.num_chips > 0, "packaging B_" + std::to_string(n) + " off the paper");
    next_job();
  }
  t.wall_s = seconds_since(t0) - paused_s;
  rep.finish(in.jobs());
  return t;
}

/// Streamed metrics must equal the metrics of the materialized geometry
/// wherever materializing is affordable (n <= 12).
void check_streamed_vs_materialized(const LayoutInputs& in, const RepTimes& rep,
                                    Ledger& ledger) {
  for (std::size_t i = 0; i < in.streamed.size(); ++i) {
    const LayoutJob& j = in.streamed[i];
    if (j.n > 12) continue;
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(j.n),
                                   options_for(j.layers, j.fold));
    ledger.op(same_metrics(plan.materialize().metrics(), rep.results[i]),
              job_name(j) + ": streamed metrics differ from the materialized layout");
  }
}

/// The hit class is a legality check, not a streamed query: checks were the
/// operations least moved by the machine's speed swings (p90/p10 1.4 against
/// 1.7 for planning and streaming, interleaved over 30 s).
void hit_queries(const LayoutInputs& in, std::size_t count, std::vector<double>& hit_us,
                 Ledger& ledger) {
  for (std::size_t k = 0; k < count; ++k) {
    const Clock::time_point t0 = Clock::now();
    const bool legal = bfly::check_multilayer(in.hit_layout).ok;
    hit_us.push_back(seconds_since(t0) * 1e6);
    ledger.op(legal, "B_4 re-check: layout reported illegal");
  }
}

void cold_queries(const LayoutInputs& in, std::size_t count, std::vector<double>& cold_ms,
                  Ledger& ledger) {
  const ButterflyLayoutOptions o = options_for(in.cold_layers, false);
  for (std::size_t k = 0; k < count; ++k) {
    const Clock::time_point t0 = Clock::now();
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(8), o);
    const bool legal = bfly::check_multilayer(plan.materialize()).ok;
    cold_ms.push_back(seconds_since(t0) * 1e3);
    ledger.op(legal, "B_8 verify: layout reported illegal");
  }
}

/// Set-up: the job list, plus one small plan streamed, materialized
/// and checked so code and allocator are warm.
LayoutInputs set_up(Ledger& ledger) {
  LayoutInputs in = make_inputs();
  in.hit_layout = ButterflyLayoutPlan(ButterflyLayoutPlan::choose_parameters(4),
                                      options_for(4, false))
                      .materialize();
  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(9), options_for(2, false));
  const bool ok = closed_forms_hold(9, plan.metrics()) && bfly::check_multilayer(plan.materialize()).ok;
  ledger.op(ok, "set-up layout B_9 failed its checks");
  return in;
}

/// Quiet quantile over consecutive blocks of kHitBlock samples, in the order
/// taken, of each block's p99.  Every block's p99 has ten samples beyond it.
double blocked_p99(const std::vector<double>& v, const std::string& name, Metrics& metrics,
                   Ledger& ledger) {
  std::vector<double> per;
  for (std::size_t b = 0; b + kHitBlock <= v.size(); b += kHitBlock) {
    std::size_t beyond = 0;
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b);
    per.push_back(percentile(std::vector<double>(first, first + kHitBlock), 0.99, &beyond));
    ledger.check(beyond >= 10, name + ": a block has only " + std::to_string(beyond) +
                                   " samples beyond the percentile");
  }
  ledger.check(per.size() >= 5, name + ": fewer than five blocks");
  metrics.note_samples(name, v.size());
  metrics.note_samples(name + ".blocks", per.size());
  return quiet_quantile(per);
}

}  // namespace

void run_layout(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics) {
  const LayoutInputs in = set_up(ledger);
  if (opt.setup_only) {
    metrics.set("setup_s", seconds_since(opt.process_start), "s");
    return;
  }

  Tracer off(false, opt.process_start);
  std::vector<RepTimes> reps;
  std::vector<RepTimes> traced;
  std::vector<double> hit_us;
  std::vector<double> hit_p50_by_gap;
  std::vector<double> cold_ms;
  std::vector<double> cold_p50_by_rep;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = seconds_since(start);
    const bool enough = opt.trace ? rep >= 5 : hit_us.size() >= 10 * kHitBlock && cold_ms.size() >= 24;
    if ((elapsed >= opt.seconds && enough) || elapsed > 150.0) break;
    const bool traced_rep = opt.trace && rep % 2 == 1;
    // The query classes run between the jobs: the machine's speed drifts
    // over seconds, and spreading the samples across the whole run keeps
    // their percentiles from hanging on a few bursts.
    const std::size_t rep_first_cold = cold_ms.size();
    const auto queries = [&](std::size_t job) {
      if (opt.trace) return;
      std::vector<double> gap;
      hit_queries(in, 120, gap, ledger);
      hit_p50_by_gap.push_back(median(gap));
      hit_us.insert(hit_us.end(), gap.begin(), gap.end());
      if (job % 3 == 2) cold_queries(in, 1, cold_ms, ledger);
    };
    RepTimes t = run_job_list(in, traced_rep ? tracer : off, ledger, queries);
    if (!opt.trace) {
      cold_p50_by_rep.push_back(median(
          std::vector<double>(cold_ms.begin() + static_cast<std::ptrdiff_t>(rep_first_cold),
                              cold_ms.end())));
    }
    if (!reps.empty()) {
      bool same = t.results.size() == reps.front().results.size();
      for (std::size_t i = 0; same && i < t.results.size(); ++i) {
        same = same_metrics(t.results[i], reps.front().results[i]);
      }
      ledger.op(same, "rep metrics differ from the first rep");
    }
    (traced_rep ? traced : reps).push_back(std::move(t));
  }
  check_streamed_vs_materialized(in, reps.front(), ledger);

  const auto med = [](const std::vector<RepTimes>& v, auto field) {
    std::vector<double> x;
    for (const RepTimes& t : v) x.push_back(field(t));
    return median(x);
  };
  const auto wall = [](const RepTimes& t) { return t.wall_s; };
  if (opt.trace) {
    const RepTimes& w = traced.front();  // work counts are identical across reps
    metrics.set("layout.wires", static_cast<double>(w.streamed_wires), "count");
    metrics.set("layout.plan_ms", med(traced, [](const RepTimes& t) { return t.plan_s * 1e3; }),
                "ms");
    metrics.set("layout.ns_per_wire",
                med(traced, [](const RepTimes& t) {
                  return t.stream_s * 1e9 / static_cast<double>(t.streamed_wires);
                }),
                "ns");
    metrics.set("layout.materialize_ms",
                med(traced, [](const RepTimes& t) { return t.materialize_s * 1e3; }), "ms");
    metrics.set("legality.wires", static_cast<double>(w.checked_wires), "count");
    metrics.set("legality.thompson_ns_per_wire",
                med(traced, [](const RepTimes& t) {
                  return t.thompson_s * 1e9 / static_cast<double>(t.thompson_wires);
                }),
                "ns");
    metrics.set("legality.multilayer_ns_per_wire",
                med(traced, [](const RepTimes& t) {
                  return t.multilayer_s * 1e9 / static_cast<double>(t.checked_wires);
                }),
                "ns");
    metrics.set("packaging.plans", static_cast<double>(w.plans), "count");
    metrics.set("packaging.plan_ms",
                med(traced, [](const RepTimes& t) { return t.packaging_s * 1e3; }), "ms");
    // Untraced reps after the first, which also warms caches and pages.
    const std::vector<RepTimes> untraced(reps.begin() + 1, reps.end());
    metrics.set("trace.overhead", med(traced, wall) / med(untraced, wall), "ratio");
    return;
  }
  std::vector<double> walls;
  for (const RepTimes& t : reps) walls.push_back(t.wall_s);
  const double wall_s = quiet_quantile(walls);
  metrics.note_samples("wall_s", reps.size());
  metrics.set("wall_s", wall_s, "s");
  metrics.set("req_per_s", static_cast<double>(in.jobs()) / wall_s, "1/s");
  // The p50s check the support rule on the pooled samples and report the
  // quiet quantile of the medians of each gap between jobs (120 hits) and of
  // each repetition (4 colds).
  supported_percentile(hit_us, 0.50, "hit_p50_us", metrics, ledger);
  metrics.set("hit_p50_us", quiet_quantile(hit_p50_by_gap), "us");
  metrics.set("hit_p99_us", blocked_p99(hit_us, "hit_p99_us", metrics, ledger), "us");
  supported_percentile(cold_ms, 0.50, "cold_p50_ms", metrics, ledger);
  metrics.set("cold_p50_ms", quiet_quantile(cold_p50_by_rep), "ms");
  metrics.set("peak_rss_mb", vm_hwm_mb(), "MiB");
  metrics.set("ok_share", ledger.ok_share(), "share");
}

}  // namespace perfbench
