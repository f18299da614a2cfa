// Quickstart: the three things the library does, in ~80 lines.
//
//   1. Transform an indirect swap network into a butterfly (Sec. 2.2) and
//      verify the isomorphism.
//   2. Produce an optimal Thompson-model layout (Sec. 3), machine-check its
//      legality, and measure area / max wire length against the paper's
//      closed forms — plus a congestion heatmap SVG coloring every wire by
//      its measured link load under uniform random routing.
//   3. Partition the network for packaging (Sec. 2.3) and count off-module
//      links.
//   4. Run a small saturation sweep through bfly::exec — checkpointed to
//      quickstart.sweep.ckpt, so a killed run resumes where it stopped with
//      bitwise-identical results.
//   5. Attach cycle-resolved telemetry to one simulation: a deterministic
//      time series (checked against Little's law L = λW) and a heatmap-over-
//      time film strip (butterfly_heatmap_time.svg).
//   6. Flight-record a deterministically sampled packet subset: full hop
//      sequences with exact latency decomposition (queue wait + transit +
//      detour == latency), wire-length path attribution through the layout
//      geometry, and a per-packet Chrome trace (butterfly_paths.trace.json —
//      one Perfetto row per sampled packet).
//   7. Survive live faults: a FaultSchedule kills a whole packaging chip
//      mid-run, spare-chip failover rewires it after a detection latency, a
//      link dies and is repaired — and the recovery analytics report the
//      time-to-recover and packets lost in each transient.
//   8. Record the whole run with bfly::obs — every step above lands in the
//      installed registry, and the end of main() writes a structured JSON
//      run report plus a Chrome trace (load quickstart.trace.json in
//      https://ui.perfetto.dev to see the phase spans).
//
// Every artifact is written crash-safely (util::atomic_write_file: tmp +
// fsync + rename), so readers never observe a torn file.
//
// Run:  ./quickstart [n] [--threads N]    (default n = 6, threads auto;
// $BFLY_THREADS is honoured when the flag is absent)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfly.hpp"
#include "util/fileio.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace bfly;
  // --threads N (or $BFLY_THREADS) bounds the sweep's worker threads; a
  // malformed value is a usage error (exit 2), never a silent fallback.
  std::size_t threads = 0;
  if (const char* env = std::getenv("BFLY_THREADS")) {
    if (!parse_thread_count(env, &threads)) {
      std::fprintf(stderr, "error: $BFLY_THREADS must be an integer in [1, 4096], got '%s'\n", env);
      return 2;
    }
  }
  int n = 6;
  bool saw_n = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--threads") {
      value = i + 1 < argc ? argv[++i] : "";
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = argv[i] + std::string("--threads=").size();
    } else if (!saw_n) {
      n = std::atoi(argv[i]);
      saw_n = true;
      continue;
    } else {
      std::fprintf(stderr, "usage: %s [n in 3..15] [--threads N]\n", argv[0]);
      return 2;
    }
    if (!parse_thread_count(value, &threads)) {
      std::fprintf(stderr, "error: --threads must be an integer in [1, 4096], got '%s'\n", value);
      return 2;
    }
  }
  if (n < 3 || n > 15) {
    std::fprintf(stderr, "usage: %s [n in 3..15] [--threads N]\n", argv[0]);
    return 1;
  }

  // Install the metrics/trace registry for the rest of the run.
  obs::Registry registry;
  const obs::ScopedRegistry scoped(&registry);

  // --- 1. ISN -> swap-butterfly -> butterfly -------------------------------
  const std::vector<int> k = ButterflyLayoutPlan::choose_parameters(n);
  const SwapButterfly sb(k);
  std::printf("B_%d: %llu rows x %d stages = %llu nodes, %llu links\n", n,
              static_cast<unsigned long long>(sb.rows()), sb.num_stages(),
              static_cast<unsigned long long>(sb.num_nodes()),
              static_cast<unsigned long long>(sb.num_links()));

  std::string why;
  const bool iso = is_isomorphism(sb.graph(), Butterfly(n).graph(),
                                  sb.isomorphism_to_butterfly(), &why);
  std::printf("swap-butterfly is an automorphism of B_%d: %s\n", n, iso ? "verified" : why.c_str());

  // A Fig. 1/2-style diagram of the underlying ISN.
  if (n <= 6) {
    const IndirectSwapNetwork& isn = sb.isn();
    util::atomic_write_file("isn_diagram.svg", render_multistage_svg(
        isn.rows(), isn.num_stages(), [&](const std::function<void(u64, int, u64)>& emit) {
          for (int t = 1; t <= isn.num_steps(); ++t) {
            for (u64 u = 0; u < isn.rows(); ++u) {
              const auto out = isn.outgoing(u, t);
              if (out.is_swap) {
                emit(u, t - 1, out.swap);
              } else {
                emit(u, t - 1, out.straight);
                emit(u, t - 1, out.cross);
              }
            }
          }
        }));
    std::printf("wrote isn_diagram.svg (Fig. 1/2 style)\n");
  }

  // --- 2. Optimal layout ----------------------------------------------------
  const ButterflyLayoutPlan plan(k);
  const LayoutMetrics m = plan.metrics();
  std::printf("\nThompson-model layout (L = 2):\n");
  std::printf("  %lld x %lld, area %lld (paper leading term %.0f, ratio %.3f)\n",
              static_cast<long long>(m.width), static_cast<long long>(m.height),
              static_cast<long long>(m.area), formulas::thompson_area(n),
              static_cast<double>(m.area) / formulas::thompson_area(n));
  std::printf("  max wire %lld (paper leading term %.0f, ratio %.3f)\n",
              static_cast<long long>(m.max_wire_length), formulas::thompson_max_wire(n),
              static_cast<double>(m.max_wire_length) / formulas::thompson_max_wire(n));

  if (n <= 9) {
    const Layout layout = plan.materialize();
    const LegalityReport thompson = check_thompson(layout);
    const LegalityReport multilayer = check_multilayer(layout);
    std::printf("  legality: Thompson %s; multilayer %s\n", thompson.summary().c_str(),
                multilayer.summary().c_str());
    util::atomic_write_file("butterfly_layout.svg", render_svg(layout, {n <= 6 ? 4.0 : 1.0, true}));
    std::printf("  wrote butterfly_layout.svg\n");

    // Congestion heatmap: census the per-link loads of B_n under uniform
    // random routing, map each layout wire (swap-butterfly link) onto its
    // butterfly link through rho, and color it by load / max load.
    const LoadCensus census = measure_link_loads(n, 500'000, 99, 0, /*keep_link_loads=*/true);
    const Butterfly bf(n);
    const SwapButterfly& net = plan.network();
    const u64 rows = net.rows();
    // Min-max normalize: uniform random routing balances loads within a few
    // percent of each other, so dividing by the max alone would paint every
    // wire the same color.
    const u64 min_load = *std::min_element(census.link_loads.begin(), census.link_loads.end());
    const u64 spread = census.max_link_load - min_load;
    std::vector<double> heat(layout.wires().size(), 0.0);
    for (std::size_t wi = 0; wi < layout.wires().size(); ++wi) {
      const Wire& wire = layout.wires()[wi];
      if (!wire.from_node || !wire.to_node) continue;
      const int s = static_cast<int>(*wire.from_node / rows);
      const u64 r1 = net.rho(s, *wire.from_node % rows);
      const u64 r2 = net.rho(s + 1, *wire.to_node % rows);
      const u64 load = census.link_loads[link_index(bf, r1, s, r1 != r2)];
      heat[wi] = spread > 0 ? static_cast<double>(load - min_load) / static_cast<double>(spread)
                            : 0.0;
    }
    RenderOptions heat_options;
    heat_options.scale = n <= 6 ? 4.0 : 1.0;
    heat_options.wire_heat = &heat;
    util::atomic_write_file("butterfly_heatmap.svg", render_svg(layout, heat_options));
    std::printf("  wrote butterfly_heatmap.svg (wires colored by measured link load,\n");
    std::printf("        %llu packets; max/avg imbalance %.3f)\n",
                static_cast<unsigned long long>(census.packets), census.imbalance);

    // Degraded-mode heatmap: inject 2%% random link faults, re-census with
    // the fault-tolerant router, and draw dead links dashed gray on top of
    // the congestion ramp.
    const FaultSet faults = FaultSet::random_links(n, 0.02, 99);
    const FaultLoadCensus degraded =
        measure_link_loads_faulty(n, 500'000, 99, faults, {}, 0, /*keep_link_loads=*/true);
    const u64 dmin = *std::min_element(degraded.census.link_loads.begin(),
                                       degraded.census.link_loads.end());
    const u64 dspread = degraded.census.max_link_load - dmin;
    std::vector<double> dheat(layout.wires().size(), 0.0);
    std::vector<bool> dead(layout.wires().size(), false);
    for (std::size_t wi = 0; wi < layout.wires().size(); ++wi) {
      const Wire& wire = layout.wires()[wi];
      if (!wire.from_node || !wire.to_node) continue;
      const int s = static_cast<int>(*wire.from_node / rows);
      const u64 r1 = net.rho(s, *wire.from_node % rows);
      const u64 r2 = net.rho(s + 1, *wire.to_node % rows);
      const u64 load = degraded.census.link_loads[link_index(bf, r1, s, r1 != r2)];
      dheat[wi] = dspread > 0
                      ? static_cast<double>(load - dmin) / static_cast<double>(dspread)
                      : 0.0;
      dead[wi] = !faults.link_alive(r1, s, r1 != r2);
    }
    heat_options.wire_heat = &dheat;
    heat_options.wire_dead = &dead;
    util::atomic_write_file("butterfly_heatmap_faults.svg", render_svg(layout, heat_options));
    std::printf("  wrote butterfly_heatmap_faults.svg (%llu dead links dashed gray;\n",
                static_cast<unsigned long long>(faults.num_dead_links()));
    std::printf("        %.2f%% of packets delivered by the fault-tolerant router)\n",
                100.0 * degraded.delivered_fraction);
  }

  // --- 3. Packaging ---------------------------------------------------------
  const Partition part = row_block_partition(sb, k[0]);
  const PartitionStats stats = evaluate_partition(sb.graph(), part);
  std::printf("\nPackaging (2^%d rows per module):\n", k[0]);
  std::printf("  %llu modules of %llu nodes; avg off-module links/node %.4f (formula %.4f)\n",
              static_cast<unsigned long long>(stats.num_modules),
              static_cast<unsigned long long>(stats.max_nodes_per_module),
              stats.avg_offmodule_links_per_node,
              formulas::offmodule_links_per_node_general(k));

  // --- 4. Resilient saturation sweep ---------------------------------------
  // Three queued simulations through exec::run_sweep_resumable.  Each finished
  // point is journaled to quickstart.sweep.ckpt (durable single-line appends);
  // kill the process mid-sweep and rerun, and the finished points replay from
  // the checkpoint — the outcome vector is bitwise identical either way.
  std::vector<SweepPoint> sweep_points;
  for (const double load : {0.3, 0.6, 0.9}) {
    SweepPoint p;
    p.n = n;
    p.offered_load = load;
    p.cycles = 600;
    p.seed = 7;
    p.warmup_cycles = 100;
    sweep_points.push_back(p);
  }
  exec::SweepRunOptions sweep_options;
  sweep_options.threads = threads;  // 0 = auto; outcomes are thread-invariant
  sweep_options.checkpoint_path = "quickstart.sweep.ckpt";
  const exec::SweepRun sweep = exec::run_sweep_resumable(sweep_points, sweep_options);
  std::printf("\nResilient sweep (checkpoint quickstart.sweep.ckpt): %s, %llu/%llu points"
              " (%llu replayed from checkpoint)\n",
              exec::to_string(sweep.status), static_cast<unsigned long long>(sweep.num_completed),
              static_cast<unsigned long long>(sweep_points.size()),
              static_cast<unsigned long long>(sweep.num_replayed));
  for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
    if (!sweep.completed[i]) continue;
    std::printf("  load %.1f -> throughput %.4f, avg latency %.2f cycles\n",
                sweep_points[i].offered_load, sweep.outcomes[i].point.throughput,
                sweep.outcomes[i].point.avg_latency);
  }

  // --- 5. Cycle-resolved telemetry ------------------------------------------
  // Re-run one moderate-load point with the time-series probe and the
  // occupancy-frame recorder attached.  Both are keyed purely by simulation
  // cycle (power-of-two stride thinning), so the samples below are bitwise
  // identical across thread counts and checkpoint replay — the same rows a
  // telemetry_budget sweep point journals.
  obs::TimeSeries series(128);
  obs::OccupancyFrames occupancy(6);
  simulate_saturation(n, 0.5, 600, 7, 100, 0, nullptr, &series, &occupancy);
  if (!series.empty()) {
    std::printf("\nCycle-resolved telemetry (load 0.5): %llu samples at stride %llu\n",
                static_cast<unsigned long long>(series.num_samples()),
                static_cast<unsigned long long>(series.stride()));
    const obs::LittlesLawCheck law = obs::littles_law_check(series);
    if (law.applicable) {
      std::printf("  Little's law: L %.1f vs lambda*W %.1f*%.2f = %.1f (rel err %.3f) -> %s\n",
                  law.l, law.lambda, law.w, law.lambda * law.w, law.rel_error,
                  law.pass ? "PASS" : "FAIL");
    }
  }
  // Heatmap over time: a film strip with one frame per retained occupancy
  // snapshot, every wire colored by its queue occupancy normalized to the
  // hottest link seen across all frames (so color is comparable between
  // frames).
  if (!occupancy.empty() && n <= 9) {
    const Layout layout = plan.materialize();
    const Butterfly bf(n);
    const SwapButterfly& net = plan.network();
    const u64 rows = net.rows();
    double peak = 0.0;
    for (std::size_t f = 0; f < occupancy.num_frames(); ++f) {
      for (const double v : occupancy.frame(f)) peak = std::max(peak, v);
    }
    std::vector<std::vector<double>> heat_frames;
    for (std::size_t f = 0; f < occupancy.num_frames(); ++f) {
      std::vector<double> heat(layout.wires().size(), 0.0);
      for (std::size_t wi = 0; wi < layout.wires().size(); ++wi) {
        const Wire& wire = layout.wires()[wi];
        if (!wire.from_node || !wire.to_node) continue;
        const int s = static_cast<int>(*wire.from_node / rows);
        const u64 r1 = net.rho(s, *wire.from_node % rows);
        const u64 r2 = net.rho(s + 1, *wire.to_node % rows);
        const double load = occupancy.frame(f)[link_index(bf, r1, s, r1 != r2)];
        heat[wi] = peak > 0.0 ? load / peak : 0.0;
      }
      heat_frames.push_back(std::move(heat));
    }
    HeatmapFilmOptions film;
    film.base.scale = n <= 6 ? 4.0 : 1.0;
    film.columns = 3;
    util::atomic_write_file("butterfly_heatmap_time.svg",
                            render_svg_small_multiples(layout, heat_frames,
                                                       occupancy.cycles(), film));
    std::printf("  wrote butterfly_heatmap_time.svg (%llu frames, queue occupancy over time)\n",
                static_cast<unsigned long long>(occupancy.num_frames()));
  }

  // --- 6. Packet flight recorder --------------------------------------------
  // Re-run the same load-0.5 point with a flight recorder attached: a
  // deterministic SplitMix64(seed ^ packet_id) sample of packets gets its
  // full hop sequence recorded.  The sampled subset is a pure function of
  // (seed, budget, expected packets), so it is bitwise identical across
  // thread counts and checkpoint replay — exactly like the telemetry above.
  SweepPoint flight_point;
  flight_point.n = n;
  flight_point.offered_load = 0.5;
  flight_point.cycles = 600;
  flight_point.seed = 7;
  flight_point.warmup_cycles = 100;
  flight_point.flight_budget = 32;
  obs::FlightRecorder flights = make_flight_recorder(flight_point);
  simulate_saturation(n, 0.5, 600, 7, 100, 0, nullptr, nullptr, nullptr, &flights);
  if (!flights.empty()) {
    std::printf("\nPacket flight recorder (load 0.5): %llu of %llu packets sampled\n",
                static_cast<unsigned long long>(flights.traces().size()),
                static_cast<unsigned long long>(flights.packets_seen()));
    // Exact latency decomposition of the slowest sampled delivery, plus its
    // physical path length through the Thompson layout (grid edge units).
    const std::vector<i64> wire_lengths = link_wire_lengths(plan);
    const obs::FlightTrace* slowest = nullptr;
    u64 slowest_latency = 0;
    for (const obs::FlightTrace& t : flights.traces()) {
      if (t.outcome != obs::FlightOutcome::kDelivered) continue;
      const u64 latency = t.end_cycle + 1 - t.injected_at;
      if (slowest == nullptr || latency > slowest_latency) {
        slowest = &t;
        slowest_latency = latency;
      }
    }
    if (slowest != nullptr) {
      const obs::FlightDecomposition d = obs::decompose_flight(*slowest, n);
      std::printf("  slowest sampled packet %llu (%llu -> %llu): latency %llu\n",
                  static_cast<unsigned long long>(slowest->packet_id),
                  static_cast<unsigned long long>(slowest->src),
                  static_cast<unsigned long long>(slowest->dst),
                  static_cast<unsigned long long>(d.latency));
      std::printf("    = queue wait %llu + transit %llu + detour %llu (sums exactly)\n",
                  static_cast<unsigned long long>(d.queue_wait),
                  static_cast<unsigned long long>(d.transit),
                  static_cast<unsigned long long>(d.detour));
      std::printf("    wire length through the layout: %lld grid edges over %zu hops\n",
                  static_cast<long long>(obs::flight_distance(*slowest, wire_lengths)),
                  slowest->hops.size());
    }
    util::atomic_write_file("butterfly_paths.trace.json",
                            obs::flight_chrome_trace_json(flights.traces(), sb.rows()));
    std::printf("  wrote butterfly_paths.trace.json (per-packet spans; open in\n");
    std::printf("        https://ui.perfetto.dev — also try: bflyreport paths quickstart.run.json)\n");
  }

  // --- 7. Live faults: fail -> failover -> repair ---------------------------
  // A deterministic mid-run timeline: chip 1 of the Section 5 packing dies at
  // cycle 150 and a provisioned spare takes over its rows 50 cycles later
  // (the detection latency); one link dies at cycle 300 and is repaired at
  // cycle 400.  Packets caught on a dying link are dropped as
  // killed_by_fault; the recovery analytics read the cycle-resolved
  // telemetry to measure each transient.
  {
    FaultSchedule schedule(n);
    schedule.attach_plan(plan_hierarchical(n, {}));
    schedule.set_failover({/*spare_chips=*/1, /*detection_latency=*/50});
    schedule.fail_chip_at(150, /*chip=*/1);
    schedule.fail_link_at(300, /*row=*/3, /*stage=*/1, /*cross=*/true);
    schedule.repair_link_at(400, 3, 1, true);

    const FaultSet pristine_base(n);
    obs::TimeSeries live_series(128);
    const FaultSaturationPoint live = simulate_saturation_faulty(
        n, 0.5, 600, 7, pristine_base, {}, 0, 0, nullptr, &live_series, nullptr,
        nullptr, &schedule);
    std::printf("\nLive faults (chip %d dies @150, failover @200; link repaired @400):\n", 1);
    std::printf("  %llu fail / %llu repair events, %llu failover(s);"
                " links killed %llu, revived %llu\n",
                static_cast<unsigned long long>(live.live.fail_events),
                static_cast<unsigned long long>(live.live.repair_events),
                static_cast<unsigned long long>(live.live.failovers),
                static_cast<unsigned long long>(live.live.links_killed),
                static_cast<unsigned long long>(live.live.links_revived));
    std::printf("  throughput %.4f; %llu packet(s) killed in flight\n",
                live.point.throughput,
                static_cast<unsigned long long>(
                    live.tally.dropped[drop_index(DropReason::kKilledByFault)]));
    const RecoveryAnalysis recovery = analyze_recovery(live_series, schedule);
    if (recovery.applicable) {
      for (const RecoveryEvent& ev : recovery.events) {
        std::printf("  fault @%llu: %s (time to recover %llu cycles, %llu packets lost)\n",
                    static_cast<unsigned long long>(ev.fault_cycle),
                    ev.recovered ? "recovered" : "did not recover",
                    static_cast<unsigned long long>(ev.time_to_recover_cycles),
                    static_cast<unsigned long long>(ev.packets_lost));
      }
      std::printf("  residual throughput after all repairs: %.4f of the pre-fault level\n",
                  recovery.residual_throughput);
    }
  }

  // --- 8. The run report ----------------------------------------------------
  obs::ReportOptions report;
  report.name = "quickstart";
  report.status = exec::to_string(sweep.status);
  report.points_completed = sweep.num_completed;
  report.points_total = static_cast<u64>(sweep_points.size());
  report.config.set("n", json::Value::number(n));
  report.artifact_stats.set("area", json::Value::number(m.area));
  report.artifact_stats.set("max_wire_length", json::Value::number(m.max_wire_length));
  report.artifact_stats.set("num_modules", json::Value::number(stats.num_modules));
  // Attaching the time series bumps the report to schema v2; without one
  // the report stays v1 — both parse with obs::RunReport::parse /
  // bflyreport.
  if (!series.empty()) report.timeseries = series.to_json();
  if (!flights.empty()) report.flight = flights.to_json();
  {
    std::ostringstream out;
    obs::write_report_pretty(out, registry, report);
    util::atomic_write_file("quickstart.run.json", out.str());
  }
  {
    std::ostringstream out;
    obs::write_chrome_trace(out, registry);
    util::atomic_write_file("quickstart.trace.json", out.str());
  }
  std::printf("\nwrote quickstart.run.json (structured run report) and\n");
  std::printf("      quickstart.trace.json (open in https://ui.perfetto.dev)\n");
  return 0;
}
