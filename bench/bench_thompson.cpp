// Experiments E3 + E7 (Sec. 3, Fig. 3): the recursive grid layout under the
// Thompson model.  Measured area -> N^2/log2^2(N) = 2^{2n} and measured max
// wire length -> N/log2(N) = 2^n, with machine-checked legality at the sizes
// where geometry fits in memory.
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_convergence_table() {
  std::fprintf(stderr, "=== E7: Thompson-model butterfly layout (Sec. 3) ===\n");
  std::fprintf(stderr, "%4s %-10s %16s %10s %12s %10s %8s\n", "n", "k", "area", "area/2^2n", "max wire",
              "wire/2^n", "legal");
  for (const int n : {3, 6, 9, 12, 15, 18}) {
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n));
    const LayoutMetrics m = plan.metrics();
    const double area_ratio = static_cast<double>(m.area) / formulas::thompson_area(n);
    const double wire_ratio =
        static_cast<double>(m.max_wire_length) / formulas::thompson_max_wire(n);
    const char* legal = "-";
    if (n <= 12) {
      const LegalityReport thompson = check_thompson(plan.materialize());
      const LegalityReport multi = check_multilayer(plan.materialize());
      legal = thompson.ok && multi.ok ? "yes" : "NO";
    }
    const auto& k = plan.network().group_sizes();
    std::fprintf(stderr, "%4d (%d,%d,%d)%*s %16lld %10.3f %12lld %10.3f %8s\n", n, k[0], k[1], k[2],
                3, "", static_cast<long long>(m.area), area_ratio,
                static_cast<long long>(m.max_wire_length), wire_ratio, legal);
  }
  std::fprintf(stderr, "paper: area = N^2/log2^2 N (1+o(1)) [ratio -> 1], max wire = N/log2 N\n");
  std::fprintf(stderr, "       (1+o(1)) [ratio -> 1]; both ratios must decrease monotonically.\n");
  std::fprintf(stderr, "       The o(1) is the Theta(2^{n/3}) block side vs Theta(2^{2n/3}) channels.\n\n");
}

void print_structure() {
  // Fig. 3: the top-view structure of the recursive grid layout.
  const ButterflyLayoutPlan plan({2, 2, 2});
  std::fprintf(stderr, "=== E3: recursive grid layout structure (Fig. 3), n=6 ===\n");
  std::fprintf(stderr, "blocks: %llu x %llu grid, block %lld x %lld, cell %lld x %lld\n",
              static_cast<unsigned long long>(plan.grid_rows()),
              static_cast<unsigned long long>(plan.grid_cols()),
              static_cast<long long>(plan.block_width()),
              static_cast<long long>(plan.block_height()),
              static_cast<long long>(plan.cell_width()),
              static_cast<long long>(plan.cell_height()));
  std::fprintf(stderr, "row channels: %llu logical tracks; column channels: %llu logical tracks\n\n",
              static_cast<unsigned long long>(plan.row_fold().logical_tracks),
              static_cast<unsigned long long>(plan.col_fold().logical_tracks));
}

void print_prior_art() {
  std::fprintf(stderr, "--- prior-art leading constants (x N^2/log2^2 N, introduction) ---\n");
  std::fprintf(stderr, "%-42s %10s\n", "layout", "constant");
  std::fprintf(stderr, "%-42s %10.3f\n", "Avior et al. [1], upright 2-layer", formulas::avior_area_constant());
  std::fprintf(stderr, "%-42s %10.3f\n", "Muthukrishnan et al. [16], knock-knee",
              formulas::knock_knee_area_constant());
  std::fprintf(stderr, "%-42s %10.3f\n", "Dinitz et al. [10], slanted rectangle",
              formulas::dinitz_slanted_area_constant());
  for (const int L : {2, 3, 4, 8}) {
    std::fprintf(stderr, "this paper, multilayer L=%-17d %10.3f\n", L,
                formulas::multilayer_area_constant(L));
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_thompson");
  print_structure();
  print_convergence_table();
  print_prior_art();
  session.emit_report();
  return 0;
}
