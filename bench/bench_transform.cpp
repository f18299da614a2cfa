// Experiment E2 (Figs. 1-2, Sec. 2.2): ISN -> swap-butterfly transformation
// and the explicit isomorphism onto B_n, across parameterizations and sizes.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

std::string shape_name(const std::vector<int>& k) {
  std::string s = "(";
  for (std::size_t i = 0; i < k.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(k[i]);
  }
  return s + ")";
}

void print_transform_table() {
  std::fprintf(stderr, "=== E2: swap-butterfly automorphisms of B_n (Figs. 1-2) ===\n");
  std::fprintf(stderr, "%-14s %4s %10s %10s %12s %6s\n", "k", "n", "rows", "nodes", "links", "iso?");
  const std::vector<std::vector<int>> shapes = {
      {1, 1},       {1, 1, 1},    {2, 2},    {3, 3, 3},    {4, 3, 3},
      {4, 4, 3},    {4, 4, 4},    {5, 5, 5}, {2, 2, 2, 2}, {4, 4, 4, 4},
      {6, 6, 6},
  };
  for (const auto& k : shapes) {
    const SwapButterfly sb(k);
    const Butterfly target(sb.dimension());
    std::string why;
    const bool iso =
        is_isomorphism(sb.graph(), target.graph(), sb.isomorphism_to_butterfly(), &why);
    std::fprintf(stderr, "%-14s %4d %10llu %10llu %12llu %6s\n", shape_name(k).c_str(), sb.dimension(),
                static_cast<unsigned long long>(sb.rows()),
                static_cast<unsigned long long>(sb.num_nodes()),
                static_cast<unsigned long long>(sb.num_links()), iso ? "yes" : "NO");
  }
  std::fprintf(stderr, "paper: every ISN(k_1..k_l) transforms into an automorphism of B_{n_l}.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_transform");
  print_transform_table();
  session.emit_report();
  return 0;
}
