// Experiment E12 (Sec. 2.2 / A.2): FFT executed over the swap-butterfly's
// physical links equals the DFT for every parameterization -- the functional
// proof of the transformation.
#include "bench_common.hpp"

#include <cstdio>

#include "core/bfly.hpp"
#include "util/prng.hpp"

namespace {

using namespace bfly;

std::vector<cplx> random_signal(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  return x;
}

void print_verification_table() {
  std::fprintf(stderr, "=== E12: FFT over swap-butterfly links vs reference FFT ===\n");
  std::fprintf(stderr, "%-14s %6s %10s %14s\n", "k", "size", "max err", "vs naive DFT");
  const std::vector<std::vector<int>> shapes = {
      {1, 1}, {2, 2}, {3, 3, 3}, {4, 3, 3}, {4, 4, 4}, {2, 2, 2, 2}, {5, 5, 5}, {6, 6, 6}};
  for (const auto& k : shapes) {
    const SwapButterfly sb(k);
    const auto x = random_signal(sb.rows(), 42);
    const auto net = fft_on_swap_butterfly(sb, x);
    const double err = max_abs_error(net, fft_reference(x));
    double naive_err = -1.0;
    if (sb.rows() <= 1024) naive_err = max_abs_error(net, dft_naive(x));
    std::fprintf(stderr, "(%d", k[0]);
    for (std::size_t i = 1; i < k.size(); ++i) std::fprintf(stderr, ",%d", k[i]);
    std::fprintf(stderr, ")%*s %6llu %10.2e ", static_cast<int>(11 - 2 * k.size()), "",
                static_cast<unsigned long long>(sb.rows()), err);
    if (naive_err >= 0) {
      std::fprintf(stderr, "%14.2e\n", naive_err);
    } else {
      std::fprintf(stderr, "%14s\n", "-");
    }
  }
  std::fprintf(stderr, "paper: the ISN is the FFT flow graph of the swap network, so the\n");
  std::fprintf(stderr, "       bypassed network computes the DFT exactly.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  bfly::bench::no_arguments(argc, argv);
  bfly::bench::BenchSession session("bench_fft");
  print_verification_table();
  session.emit_report();
  return 0;
}
