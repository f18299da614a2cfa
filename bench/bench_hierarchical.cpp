// Experiments E9 + E10 (Sec. 5): the hierarchical layout of a 9-dimensional
// butterfly on pin-limited chips, and the diminishing-returns area-vs-L
// curve.
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_section5_example() {
  const HierarchicalPlan plan = plan_hierarchical(9, {});
  std::fprintf(stderr, "=== E9: Sec. 5 example -- 9-dim butterfly, 64-pin chips of side 20 ===\n");
  std::fprintf(stderr, "%-34s %10s %10s\n", "quantity", "paper", "measured");
  std::fprintf(stderr, "%-34s %10s %10s\n", "ISN parameters", "(3,3,3)",
              (std::string("(") + std::to_string(plan.k[0]) + "," + std::to_string(plan.k[1]) +
               "," + std::to_string(plan.k[2]) + ")")
                  .c_str());
  std::fprintf(stderr, "%-34s %10d %10llu\n", "nodes per chip", 80,
              static_cast<unsigned long long>(plan.nodes_per_chip));
  std::fprintf(stderr, "%-34s %10d %10llu\n", "chips", 64,
              static_cast<unsigned long long>(plan.num_chips));
  std::fprintf(stderr, "%-34s %10s %7llux%llu\n", "chip grid", "8x8",
              static_cast<unsigned long long>(plan.grid_rows),
              static_cast<unsigned long long>(plan.grid_cols));
  std::fprintf(stderr, "%-34s %10s %10llu\n", "off-chip links per chip", "<=64",
              static_cast<unsigned long long>(plan.offchip_links_per_chip));
  std::fprintf(stderr, "%-34s %10d %10llu\n", "tracks per channel (optimized)", 60,
              static_cast<unsigned long long>(plan.logical_tracks_per_channel));
  std::fprintf(stderr, "%-34s %10d %10lld\n", "board area, L=2", 409600,
              static_cast<long long>(plan.board_area(2)));
  std::fprintf(stderr, "%-34s %10d %10lld\n", "board area, L=4", 160000,
              static_cast<long long>(plan.board_area(4)));
  std::fprintf(stderr, "%-34s %10d %10lld\n", "board area, L=8", 78400,
              static_cast<long long>(plan.board_area(8)));
  std::fprintf(stderr, "%-34s %10d %10llu\n", "naive chips (paper estimate)", 171,
              static_cast<unsigned long long>(naive_chip_count_paper_estimate(9, 64)));
  std::fprintf(stderr, "%-34s %10s %10llu\n", "naive chips (exact counting)", "-",
              static_cast<unsigned long long>(naive_chip_count(9, 64)));
  std::fprintf(stderr, "\n");
}

void print_area_vs_layers() {
  const HierarchicalPlan plan = plan_hierarchical(9, {});
  std::fprintf(stderr, "=== E10: diminishing area returns vs board layers (Sec. 5) ===\n");
  std::fprintf(stderr, "%4s %12s %12s %12s %10s\n", "L", "board side", "board area", "area gain",
              "max wire");
  i64 prev = 0;
  for (const int L : {2, 4, 8, 16, 32}) {
    const i64 area = plan.board_area(L);
    std::fprintf(stderr, "%4d %12lld %12lld %11.2fx %10lld\n", L,
                static_cast<long long>(plan.board_side(L)), static_cast<long long>(area),
                prev > 0 ? static_cast<double>(prev) / static_cast<double>(area) : 0.0,
                static_cast<long long>(plan.max_board_wire(L)));
    prev = area;
  }
  std::fprintf(stderr, "paper: gains fade once chips (side 20) rival the shrunken channels;\n");
  std::fprintf(stderr, "       L=4 -> L=8 shortens the max wire by ~1.4x.\n\n");
}

void print_pin_budget_sweep() {
  std::fprintf(stderr, "--- pin-budget sweep (n = 9) ---\n");
  std::fprintf(stderr, "%6s %6s %12s %10s %14s\n", "pins", "k1", "nodes/chip", "chips", "off/chip");
  for (const u64 pins : {24u, 32u, 48u, 64u, 96u, 128u}) {
    ChipConstraints c;
    c.max_offchip_links = pins;
    c.chip_side = 40;  // generous so pins are the binding constraint
    try {
      const HierarchicalPlan plan = plan_hierarchical(9, c);
      std::fprintf(stderr, "%6llu %6d %12llu %10llu %14llu\n", static_cast<unsigned long long>(pins),
                  plan.rows_log2, static_cast<unsigned long long>(plan.nodes_per_chip),
                  static_cast<unsigned long long>(plan.num_chips),
                  static_cast<unsigned long long>(plan.offchip_links_per_chip));
    } catch (const InvalidArgument&) {
      std::fprintf(stderr, "%6llu %6s %12s %10s %14s\n", static_cast<unsigned long long>(pins),
                  "-", "infeasible", "-", "-");
    }
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_hierarchical");
  print_section5_example();
  print_area_vs_layers();
  print_pin_budget_sweep();
  session.emit_report();
  return 0;
}
