// Experiments E5 + E6 (Sec. 2.3, Theorem 2.1): off-module links of the
// row-block and nucleus partitions vs the closed forms, the naive baseline,
// and Theorem 2.1's bounds.
#include "bench_common.hpp"

#include <cstdio>
#include <vector>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_rowblock_table() {
  std::fprintf(stderr, "=== E5: row-block packaging (Sec. 2.3) ===\n");
  std::fprintf(stderr, "%4s %4s %4s %10s %10s %10s %10s %8s\n", "n", "l", "k1", "modules", "avg-off",
              "formula", "naive", "gain");
  for (const int k1 : {2, 3, 4}) {
    for (const int l : {2, 3, 4}) {
      const int n = l * k1;
      if (n > 16) continue;
      const std::vector<int> k(static_cast<std::size_t>(l), k1);
      const SwapButterfly sb(k);
      const PartitionStats ours =
          evaluate_partition(sb.graph(), row_block_partition(sb, k1));
      const double formula = formulas::offmodule_links_per_node(l, k1, n);
      const Butterfly bf(n);
      const PartitionStats naive =
          evaluate_partition(bf.graph(), naive_row_partition(bf, pow2(k1)));
      std::fprintf(stderr, "%4d %4d %4d %10llu %10.4f %10.4f %10.4f %7.2fx\n", n, l, k1,
                  static_cast<unsigned long long>(ours.num_modules),
                  ours.avg_offmodule_links_per_node, formula,
                  naive.avg_offmodule_links_per_node,
                  naive.avg_offmodule_links_per_node / ours.avg_offmodule_links_per_node);
    }
  }
  std::fprintf(stderr, "paper: avg off-module links/node = 4(l-1)(2^k1-1)/((n+1)2^k1);\n");
  std::fprintf(stderr, "       naive consecutive-row packing ~2/node; Theta(log N) gain.\n\n");
}

void print_theorem21_table() {
  std::fprintf(stderr, "=== E6: nucleus partition vs Theorem 2.1 bounds ===\n");
  std::fprintf(stderr, "%-12s %10s %12s %12s %12s %12s\n", "k", "modules", "max nodes", "bound",
              "max off", "bound");
  for (const auto& k : {std::vector<int>{3, 3, 3}, std::vector<int>{4, 4, 4},
                        std::vector<int>{4, 4, 2}, std::vector<int>{5, 5, 5},
                        std::vector<int>{3, 3, 3, 3}}) {
    const SwapButterfly sb(k);
    const PartitionStats s = evaluate_partition(sb.graph(), nucleus_partition(sb));
    std::fprintf(stderr, "(%d", k[0]);
    for (std::size_t i = 1; i < k.size(); ++i) std::fprintf(stderr, ",%d", k[i]);
    std::fprintf(stderr, ")%*s %10llu %12llu %12llu %12llu %12llu\n",
                static_cast<int>(10 - 2 * k.size()), "",
                static_cast<unsigned long long>(s.num_modules),
                static_cast<unsigned long long>(s.max_nodes_per_module),
                static_cast<unsigned long long>(theorem21_max_nodes(k[0])),
                static_cast<unsigned long long>(s.max_offmodule_links_per_module),
                static_cast<unsigned long long>(theorem21_max_offlinks(k[0])));
  }
  std::fprintf(stderr, "paper: modules hold <= 2^k1 k1 nodes (we count the boundary stage too:\n");
  std::fprintf(stderr, "       <= 2^k1 (k1+1)) with <= 2^{k1+2} off-module links each.\n\n");
}

void print_lower_bound_table() {
  std::fprintf(stderr, "=== E6b: routing lower bound Omega(M / log R) ===\n");
  std::fprintf(stderr, "%4s %12s %14s %14s %10s\n", "n", "avg dist", "per-node inj", "pins LB/node",
              "ours/node");
  for (const int n : {6, 8, 10}) {
    const double dist = average_node_distance(n, 100000, 2026);
    // Capacity argument: 4 links per interior node, each carrying <= 1
    // packet per cycle; per-node injection <= 4 / avg distance.
    const double inj = 4.0 / dist;
    // A module must export traffic at rate ~ per-node injection: the pins
    // lower bound per node is Theta(1/log R).
    const std::vector<int> k(3, n / 3);
    const SwapButterfly sb(k);
    const PartitionStats ours = evaluate_partition(sb.graph(), row_block_partition(sb, n / 3));
    std::fprintf(stderr, "%4d %12.2f %14.4f %14.4f %10.4f\n", n, dist, inj, inj,
                ours.avg_offmodule_links_per_node);
  }
  std::fprintf(stderr, "paper: max injection rate Theta(1/log R) -> Omega(M/log R) off-module\n");
  std::fprintf(stderr, "       links; the row-block scheme meets it within a constant.\n\n");
}

void print_multilevel_table() {
  std::fprintf(stderr, "=== E5b: multi-level packaging hierarchy (Sec. 2.3, extension) ===\n");
  std::fprintf(stderr, "%-12s %6s %14s %10s %12s %12s\n", "k", "level", "rows/module", "modules",
              "avg off", "formula");
  for (const auto& k : {std::vector<int>{3, 3, 3}, std::vector<int>{2, 2, 2, 2},
                        std::vector<int>{4, 4, 4}}) {
    const SwapButterfly sb(k);
    for (const PackagingLevel& level : multilevel_packaging(sb)) {
      std::fprintf(stderr, "(%d", k[0]);
      for (std::size_t i = 1; i < k.size(); ++i) std::fprintf(stderr, ",%d", k[i]);
      std::fprintf(stderr, ")%*s %6d %14llu %10llu %12.4f %12.4f\n",
                  static_cast<int>(10 - 2 * k.size()), "", level.level,
                  static_cast<unsigned long long>(level.rows_per_module),
                  static_cast<unsigned long long>(level.stats.num_modules),
                  level.stats.avg_offmodule_links_per_node, level.predicted_avg);
    }
  }
  std::fprintf(stderr, "paper: at higher packaging levels only higher-level swap links escape,\n");
  std::fprintf(stderr, "       so per-node off-module links shrink further up the hierarchy.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_packaging");
  print_rowblock_table();
  print_multilevel_table();
  print_theorem21_table();
  print_lower_bound_table();
  session.emit_report();
  return 0;
}
