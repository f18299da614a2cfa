// The functional proof of Section 2.2: running an FFT over the
// swap-butterfly's physical links computes the DFT exactly, for every ISN
// parameterization -- possible only if the transformed network is a genuine
// butterfly.
#include <gtest/gtest.h>

#include "fft/isn_fft.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

std::vector<cplx> random_signal(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  return x;
}

TEST(Fft, ReferenceMatchesNaiveDft) {
  for (const u64 n : {2u, 4u, 16u, 64u, 256u}) {
    const auto x = random_signal(n, n);
    EXPECT_LT(max_abs_error(fft_reference(x), dft_naive(x)), 1e-8 * static_cast<double>(n));
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(16, 0.0);
  x[0] = 1.0;
  const auto X = fft_reference(x);
  for (const cplx& v : X) EXPECT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fft, ConstantGivesImpulse) {
  std::vector<cplx> x(32, 1.0);
  const auto X = fft_reference(x);
  EXPECT_NEAR(std::abs(X[0] - cplx{32.0, 0.0}), 0.0, 1e-9);
  for (std::size_t k = 1; k < 32; ++k) EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-9);
}

class SwapButterflyFft : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SwapButterflyFft, MatchesReference) {
  const SwapButterfly sb(GetParam());
  const auto x = random_signal(sb.rows(), 1234);
  const auto network = fft_on_swap_butterfly(sb, x);
  const auto reference = fft_reference(x);
  EXPECT_LT(max_abs_error(network, reference), 1e-9 * static_cast<double>(sb.rows()));
}

TEST_P(SwapButterflyFft, MatchesNaiveDft) {
  const SwapButterfly sb(GetParam());
  if (sb.rows() > 1024) GTEST_SKIP() << "naive DFT too slow";
  const auto x = random_signal(sb.rows(), 77);
  const auto network = fft_on_swap_butterfly(sb, x);
  const auto naive = dft_naive(x);
  EXPECT_LT(max_abs_error(network, naive), 1e-7 * static_cast<double>(sb.rows()));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, SwapButterflyFft,
    ::testing::Values(std::vector<int>{1, 1}, std::vector<int>{1, 1, 1},
                      std::vector<int>{2, 2}, std::vector<int>{3, 2},
                      std::vector<int>{2, 2, 2}, std::vector<int>{3, 3, 3},
                      std::vector<int>{4, 3, 3}, std::vector<int>{4, 4, 3},
                      std::vector<int>{2, 2, 2, 2}, std::vector<int>{3, 2, 2, 1},
                      std::vector<int>{6, 6}),
    [](const ::testing::TestParamInfo<std::vector<int>>& pinfo) {
      // Appends, not "_" + std::to_string(v): GCC 12 reports a false
      // -Wrestrict inside std::string's operator+.
      std::string name = "k";
      for (const int v : pinfo.param) {
        name += '_';
        name += std::to_string(v);
      }
      return name;
    });

TEST(Fft, LinearityOnTheNetwork) {
  const SwapButterfly sb({2, 2, 2});
  const auto x = random_signal(sb.rows(), 5);
  const auto y = random_signal(sb.rows(), 6);
  std::vector<cplx> sum(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) sum[i] = x[i] + 2.0 * y[i];
  const auto X = fft_on_swap_butterfly(sb, x);
  const auto Y = fft_on_swap_butterfly(sb, y);
  const auto S = fft_on_swap_butterfly(sb, sum);
  std::vector<cplx> expect(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) expect[i] = X[i] + 2.0 * Y[i];
  EXPECT_LT(max_abs_error(S, expect), 1e-9 * static_cast<double>(sb.rows()));
}

TEST(Fft, ParsevalHoldsOnTheNetwork) {
  const SwapButterfly sb({3, 3});
  const auto x = random_signal(sb.rows(), 8);
  const auto X = fft_on_swap_butterfly(sb, x);
  double time_energy = 0;
  double freq_energy = 0;
  for (const cplx& v : x) time_energy += std::norm(v);
  for (const cplx& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(sb.rows()),
              1e-6 * freq_energy);
}

TEST(Fft, RejectsWrongInputSize) {
  const SwapButterfly sb({2, 2});
  std::vector<cplx> x(8, 0.0);
  EXPECT_THROW(fft_on_swap_butterfly(sb, x), InvalidArgument);
  std::vector<cplx> bad(6, 0.0);
  EXPECT_THROW(fft_reference(bad), InvalidArgument);
}

}  // namespace
}  // namespace bfly
