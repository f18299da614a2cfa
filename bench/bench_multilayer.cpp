// Experiment E8 (Theorem 4.1): multilayer layouts for L = 2..16 layers.
// area -> 4 N^2/(L^2 log^2 N) (even) and 4 N^2/((L^2-1) log^2 N) (odd);
// max wire -> 2N/(L log N); volume -> 4 N^2/(L log^2 N).
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_theorem41_table(int n) {
  const double nodes = formulas::nodes(n);
  std::fprintf(stderr, "=== E8: multilayer layouts of B_%d (N = %.0f nodes), Theorem 4.1 ===\n", n,
              nodes);
  std::fprintf(stderr, "%4s %14s %12s %8s %10s %8s %14s %8s\n", "L", "area", "formula", "ratio",
              "max wire", "ratio", "volume", "ratio");
  for (const int L : {2, 3, 4, 5, 6, 8, 12, 16}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n), opt);
    const LayoutMetrics m = plan.metrics();
    const double f_area = formulas::multilayer_area(n, L);
    const double f_wire = formulas::multilayer_max_wire(n, L);
    const double f_vol = formulas::multilayer_volume(n, L);
    std::fprintf(stderr, "%4d %14lld %12.0f %8.3f %10lld %8.3f %14lld %8.3f\n", L,
                static_cast<long long>(m.area), f_area, static_cast<double>(m.area) / f_area,
                static_cast<long long>(m.max_wire_length),
                static_cast<double>(m.max_wire_length) / f_wire,
                static_cast<long long>(m.volume),
                static_cast<double>(m.volume) / f_vol);
  }
  std::fprintf(stderr, "paper: ratios -> 1 as n grows; the channel term scales exactly as the\n");
  std::fprintf(stderr, "       formulas while the block term (o()) is L-independent.\n\n");
}

void print_fold_ablation(int n) {
  // Design-choice ablation (DESIGN.md): the paper leaves block internals on
  // two layers (an o() term); folding them across the layer groups as well
  // makes the measured area track the 1/L^2 law at practical sizes.
  std::fprintf(stderr, "--- ablation: intra-block channel folding (B_%d) ---\n", n);
  std::fprintf(stderr, "%4s %14s %14s %8s %10s %10s\n", "L", "plain area", "folded area", "shrink",
              "plain/f", "folded/f");
  for (const int L : {2, 4, 6, 8, 12, 16}) {
    ButterflyLayoutOptions plain;
    plain.layers = L;
    ButterflyLayoutOptions folded = plain;
    folded.fold_block_channels = true;
    const auto kparams = ButterflyLayoutPlan::choose_parameters(n);
    const double a_plain =
        static_cast<double>(ButterflyLayoutPlan(kparams, plain).metrics().area);
    const double a_folded =
        static_cast<double>(ButterflyLayoutPlan(kparams, folded).metrics().area);
    const double f = formulas::multilayer_area(n, L);
    std::fprintf(stderr, "%4d %14.0f %14.0f %7.2fx %10.3f %10.3f\n", L, a_plain, a_folded,
                a_plain / a_folded, a_plain / f, a_folded / f);
  }
  std::fprintf(stderr, "\n");
}

void print_channel_scaling(int n) {
  std::fprintf(stderr, "--- channel positions (exact folding, B_%d) ---\n", n);
  std::fprintf(stderr, "%4s %14s %14s\n", "L", "row positions", "col positions");
  for (const int L : {2, 3, 4, 5, 6, 8, 12, 16}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n), opt);
    std::fprintf(stderr, "%4d %14lld %14lld\n", L, static_cast<long long>(plan.row_fold().positions),
                static_cast<long long>(plan.col_fold().positions));
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_multilayer");
  print_theorem41_table(12);
  print_theorem41_table(15);
  print_channel_scaling(12);
  print_fold_ablation(12);
  print_fold_ablation(15);
  session.emit_report();
  return 0;
}
