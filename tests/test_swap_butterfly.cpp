// Verifies the central structural claim of Section 2.2: the swap-butterfly
// obtained from ISN(k_1, ..., k_l) is an automorphism (relabeled copy) of the
// butterfly B_{n_l}, via the explicit stage-wise row maps rho_s.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "topology/butterfly.hpp"
#include "topology/generalized_hypercube.hpp"
#include "topology/isomorphism.hpp"
#include "topology/swap_butterfly.hpp"

namespace bfly {
namespace {

TEST(Isomorphism, AcceptsIdentityOnButterfly) {
  const Graph g = Butterfly(3).graph();
  std::vector<u64> identity(g.num_nodes());
  for (u64 i = 0; i < g.num_nodes(); ++i) identity[i] = i;
  std::string why;
  EXPECT_TRUE(is_isomorphism(g, g, identity, &why)) << why;
}

TEST(Isomorphism, RejectsNonBijective) {
  const Graph g = Butterfly(2).graph();
  std::vector<u64> constant(g.num_nodes(), 0);
  std::string why;
  EXPECT_FALSE(is_isomorphism(g, g, constant, &why));
  EXPECT_NE(why.find("injective"), std::string::npos);
}

TEST(Isomorphism, RejectsWrongEdgeImage) {
  Graph a(4);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  Graph b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const std::vector<u64> identity{0, 1, 2, 3};
  EXPECT_FALSE(is_isomorphism(a, b, identity));
}

TEST(Isomorphism, RejectsSizeMismatch) {
  const Graph a = Butterfly(2).graph();
  const Graph b = Butterfly(3).graph();
  std::vector<u64> map(a.num_nodes(), 0);
  std::string why;
  EXPECT_FALSE(is_isomorphism(a, b, map, &why));
}

TEST(SwapButterfly, Fig1FourByFour) {
  // Figure 1: 4x4 ISN (k1=k2=1) transformed into a 4x4 butterfly (B_2).
  const SwapButterfly sb({1, 1});
  EXPECT_EQ(sb.dimension(), 2);
  EXPECT_EQ(sb.rows(), 4u);
  EXPECT_EQ(sb.num_stages(), 3);
  std::string why;
  EXPECT_TRUE(is_isomorphism(sb.graph(), Butterfly(2).graph(),
                             sb.isomorphism_to_butterfly(), &why))
      << why;
  // The paper's example: node (1,2) of the swap-butterfly maps to row 2.
  // With k1=k2=1, sigma_2 swaps bit 1 and bit 0, so rho_2(0b01) = 0b10.
  EXPECT_EQ(sb.rho(2, 1), 2u);
}

TEST(SwapButterfly, Fig2aEightByEight) {
  // Figure 2(a): an 8x8 butterfly (B_3) from a 3-level ISN with k_i = 1.
  const SwapButterfly sb({1, 1, 1});
  EXPECT_EQ(sb.dimension(), 3);
  EXPECT_EQ(sb.rows(), 8u);
  std::string why;
  EXPECT_TRUE(is_isomorphism(sb.graph(), Butterfly(3).graph(),
                             sb.isomorphism_to_butterfly(), &why))
      << why;
}

TEST(SwapButterfly, Fig2bSixteenBySixteen) {
  // Figure 2(b): a 16x16 butterfly (B_4) from ISN(2, B_2).
  const SwapButterfly sb({2, 2});
  EXPECT_EQ(sb.dimension(), 4);
  EXPECT_EQ(sb.rows(), 16u);
  std::string why;
  EXPECT_TRUE(is_isomorphism(sb.graph(), Butterfly(4).graph(),
                             sb.isomorphism_to_butterfly(), &why))
      << why;
}

TEST(SwapButterfly, RhoStageZeroIsIdentityAndBijective) {
  const SwapButterfly sb({3, 2, 2});
  for (u64 v = 0; v < sb.rows(); ++v) EXPECT_EQ(sb.rho(0, v), v);
  for (int s = 0; s <= sb.dimension(); ++s) {
    std::vector<bool> hit(sb.rows(), false);
    for (u64 v = 0; v < sb.rows(); ++v) {
      const u64 w = sb.rho(s, v);
      ASSERT_LT(w, sb.rows());
      EXPECT_FALSE(hit[w]);
      hit[w] = true;
    }
  }
}

TEST(SwapButterfly, FirstLevelStagesKeepRowNumbers) {
  // Paper: "a node in stage 0 ... same row number"; the first k_1 + 1 stages
  // keep their row numbers (no swap has been applied yet).
  const SwapButterfly sb({3, 3});
  for (int s = 0; s <= 3; ++s) {
    for (u64 v = 0; v < sb.rows(); ++v) EXPECT_EQ(sb.rho(s, v), v);
  }
  // Beyond the boundary rho is sigma_2.
  for (u64 v = 0; v < sb.rows(); ++v) {
    EXPECT_EQ(sb.rho(4, v), sb.isn().sigma(2, v));
  }
}

TEST(SwapButterfly, SwapTransitionsAreExactlyLevelBoundaries) {
  const SwapButterfly sb({3, 2, 2});
  for (int s = 0; s < sb.dimension(); ++s) {
    const bool expected = (s == 3) || (s == 5);  // n_1 = 3, n_2 = 5
    EXPECT_EQ(sb.is_swap_transition(s), expected) << s;
  }
}

TEST(SwapButterfly, DegreeProfileMatchesButterfly) {
  const SwapButterfly sb({2, 2, 2});
  const auto ours = sb.graph().degree_histogram();
  const auto theirs = Butterfly(6).graph().degree_histogram();
  EXPECT_EQ(ours, theirs);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every parameterization listed must transform into an
// exact copy of B_{n_l}.
// ---------------------------------------------------------------------------

class SwapButterflyIsomorphism : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SwapButterflyIsomorphism, TransformsIntoButterfly) {
  const SwapButterfly sb(GetParam());
  const Butterfly target(sb.dimension());
  ASSERT_EQ(sb.num_nodes(), target.num_nodes());
  std::string why;
  EXPECT_TRUE(is_isomorphism(sb.graph(), target.graph(), sb.isomorphism_to_butterfly(), &why))
      << why;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, SwapButterflyIsomorphism,
    ::testing::Values(
        std::vector<int>{1, 1},           // Fig. 1
        std::vector<int>{1, 1, 1},        // Fig. 2a
        std::vector<int>{2, 2},           // Fig. 2b
        std::vector<int>{2, 1},           // unequal groups
        std::vector<int>{3, 2},           //
        std::vector<int>{3, 3},           //
        std::vector<int>{2, 2, 2},        // l = 3, n = 6
        std::vector<int>{3, 3, 3},        // the Section 3 layout shape, n = 9
        std::vector<int>{4, 3, 3},        // n = 10 (n mod 3 == 1 rule)
        std::vector<int>{4, 4, 3},        // n = 11 (n mod 3 == 2 rule)
        std::vector<int>{4, 4, 4},        // n = 12
        std::vector<int>{2, 2, 2, 2},     // l = 4
        std::vector<int>{3, 2, 2, 1},     // mixed groups, l = 4
        std::vector<int>{2, 1, 1, 1, 1},  // l = 5
        std::vector<int>{5, 4},           // two-level, larger nucleus
        std::vector<int>{6, 6}),          // n = 12 two-level
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

// ---------------------------------------------------------------------------
// Section 3 structural claims about the block quotient.
// ---------------------------------------------------------------------------

TEST(SwapButterfly, BlockQuotientIsGeneralizedHypercubeTimesFour) {
  // Place every 2^{k1} consecutive rows into a block; contract each block's
  // nodes (all stages).  The paper: the quotient is a 2-D radix-2^{k}
  // generalized hypercube where each pair of blocks in the same row or
  // column of the 2^{k3} x 2^{k2} grid is connected by 4 links
  // (k1 = k2 = k3 = k).
  const int k = 2;
  const SwapButterfly sb({k, k, k});
  const u64 blocks = pow2(2 * k);
  std::vector<u64> labels(sb.num_nodes());
  for (u64 id = 0; id < sb.num_nodes(); ++id) {
    labels[id] = sb.row_of(id) >> k;  // block = top k2+k3 bits of the row
  }
  const Graph quotient = sb.graph().contract(labels, blocks);
  // Block index bits: [0,k) = group-2 address (grid column), [k,2k) = group-3
  // address (grid row).  GHC digit order is least-significant first.
  const Graph expected = GeneralizedHypercube({pow2(k), pow2(k)}, 4).graph();
  EXPECT_TRUE(quotient.same_as(expected));
}

TEST(SwapButterfly, GeneralCaseBlockQuotient) {
  // k1=3, k2=2, k3=2: row-channel multiplicity 2^(2+k1-k2) = 8 and
  // column-channel multiplicity 2^(2+k1-k3) = 8.
  const SwapButterfly sb({3, 2, 2});
  const u64 blocks = pow2(4);
  std::vector<u64> labels(sb.num_nodes());
  for (u64 id = 0; id < sb.num_nodes(); ++id) labels[id] = sb.row_of(id) >> 3;
  const Graph quotient = sb.graph().contract(labels, blocks);
  for (u64 a = 0; a < blocks; ++a) {
    for (u64 b = a + 1; b < blocks; ++b) {
      const bool same_col = (a & 3u) == (b & 3u);   // group-2 digits equal
      const bool same_row = (a >> 2) == (b >> 2);   // group-3 digits equal
      const u64 expected = same_row || same_col ? 8u : 0u;
      EXPECT_EQ(quotient.multiplicity(a, b), expected) << a << "," << b;
    }
  }
}

}  // namespace
}  // namespace bfly
