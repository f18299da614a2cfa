// Experiment E4 (Fig. 4 + Appendix B): strictly optimal collinear layouts of
// complete graphs.
//
// Reproduces: K_9 in 20 tracks; floor(N^2/4) tracks = bisection lower bound
// for all N; 25% improvement over the Chen-Agrawal layout [6, Theorem 1].
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"

namespace {

using namespace bfly;

void print_track_table() {
  std::fprintf(stderr, "=== E4: collinear layout of K_N (Appendix B, Fig. 4) ===\n");
  std::fprintf(stderr, "%6s %12s %12s %14s %12s %10s\n", "N", "tracks", "bisection", "Chen-Agrawal",
              "saving", "legal");
  for (const u64 n : {4u, 8u, 9u, 16u, 32u, 64u, 128u, 256u}) {
    const u64 tracks = collinear_track_count(n);
    const u64 bisection = CompleteGraph(n).bisection_width();
    const bool pow2n = is_pow2(n);
    const u64 ca = pow2n ? chen_agrawal_track_count(n) : 0;
    const double saving = pow2n && ca > 0
                              ? 100.0 * (1.0 - static_cast<double>(tracks) / static_cast<double>(ca))
                              : 0.0;
    // Geometry + legality for moderate sizes.
    const char* legal = "-";
    if (n <= 64) {
      const CollinearLayout cl = collinear_complete_graph(n);
      legal = (check_thompson(cl.layout).ok && check_multilayer(cl.layout).ok &&
               cl.num_tracks == tracks)
                  ? "yes"
                  : "NO";
    }
    if (pow2n) {
      std::fprintf(stderr, "%6llu %12llu %12llu %14llu %11.1f%% %10s\n",
                  static_cast<unsigned long long>(n), static_cast<unsigned long long>(tracks),
                  static_cast<unsigned long long>(bisection), static_cast<unsigned long long>(ca),
                  saving, legal);
    } else {
      std::fprintf(stderr, "%6llu %12llu %12llu %14s %12s %10s\n", static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(tracks),
                  static_cast<unsigned long long>(bisection), "-", "-", legal);
    }
  }
  std::fprintf(stderr, "paper: K_9 uses 20 tracks (Fig. 4); floor(N^2/4) matches bisection;\n");
  std::fprintf(stderr, "       asymptotic saving over [6] is 25%%.\n\n");

  // Track-order reversal reduces the max wire length (Appendix B remark).
  const CollinearLayout plain = collinear_complete_graph(16);
  const CollinearLayout reversed = collinear_complete_graph(16, {1, true});
  std::fprintf(stderr, "K_16 max wire: plain order %lld, reversed order %lld\n\n",
              static_cast<long long>(plain.layout.metrics().max_wire_length),
              static_cast<long long>(reversed.layout.metrics().max_wire_length));
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_collinear");
  print_track_table();
  session.emit_report();
  return 0;
}
