// Extension experiment (paper conclusion): grid layouts of hypercubes with
// the same collinear-channel machinery, measured against the Thompson lower
// bound (N/2)^2, plus the size of the Benes permutation network (the switch
// substrate from the introduction; tests/test_benes.cpp checks its routing).
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_hypercube_table() {
  std::fprintf(stderr, "=== extension: hypercube grid layouts vs (N/2)^2 lower bound ===\n");
  std::fprintf(stderr, "%4s %8s %16s %14s %8s %12s %8s\n", "n", "grid", "area", "bound", "ratio",
              "max wire", "legal");
  for (const int n : {6, 8, 10, 12, 14}) {
    const HypercubeLayoutPlan plan(n);
    const LayoutMetrics m = plan.metrics();
    const double bound = HypercubeLayoutPlan::area_lower_bound(n);
    const char* legal = "-";
    if (n <= 12) {
      legal = check_multilayer(plan.materialize()).ok ? "yes" : "NO";
    }
    std::fprintf(stderr, "%4d %3llux%-4llu %16lld %14.0f %8.3f %12lld %8s\n", n,
                static_cast<unsigned long long>(plan.grid_rows()),
                static_cast<unsigned long long>(plan.grid_cols()),
                static_cast<long long>(m.area), bound, static_cast<double>(m.area) / bound,
                static_cast<long long>(m.max_wire_length), legal);
  }
  std::fprintf(stderr, "\n");
}

void print_hypercube_layers() {
  std::fprintf(stderr, "--- hypercube area vs layers (n = 12) ---\n");
  std::fprintf(stderr, "%4s %16s %12s\n", "L", "area", "max wire");
  for (const int L : {2, 4, 6, 8}) {
    HypercubeLayoutOptions opt;
    opt.layers = L;
    const HypercubeLayoutPlan plan(12, opt);
    const LayoutMetrics m = plan.metrics();
    std::fprintf(stderr, "%4d %16lld %12lld\n", L, static_cast<long long>(m.area),
                static_cast<long long>(m.max_wire_length));
  }
  std::fprintf(stderr, "\n");
}

void print_benes_table() {
  std::fprintf(stderr, "=== extension: Benes permutation routing (looping algorithm) ===\n");
  std::fprintf(stderr, "%4s %8s %10s\n", "n", "ports", "stages");
  for (const int n : {4, 6, 8, 10}) {
    const Benes b(n);
    std::fprintf(stderr, "%4d %8llu %10d\n", n, static_cast<unsigned long long>(b.rows()),
                 b.num_stages());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_hypercube");
  print_hypercube_table();
  print_hypercube_layers();
  print_benes_table();
  session.emit_report();
  return 0;
}
