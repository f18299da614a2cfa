// Benes networks: rearrangeable non-blocking routing via the looping
// algorithm -- every permutation must realize node-disjoint paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "topology/benes.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

/// Validates a routed permutation end to end: path shape, every hop is a
/// real Benes link, per-stage occupancies are permutations (node- and hence
/// link-disjoint), and delivery matches perm.
void validate_routing(const Benes& benes, std::span<const u64> perm,
                      const std::vector<std::vector<u64>>& paths) {
  const u64 r = benes.rows();
  ASSERT_EQ(paths.size(), r);
  for (u64 s = 0; s < r; ++s) {
    ASSERT_EQ(paths[s].size(), static_cast<std::size_t>(benes.num_stages()));
    EXPECT_EQ(paths[s].front(), s);
    EXPECT_EQ(paths[s].back(), perm[s]);
    for (int t = 0; t < benes.num_transitions(); ++t) {
      const u64 a = paths[s][static_cast<std::size_t>(t)];
      const u64 b = paths[s][static_cast<std::size_t>(t) + 1];
      const u64 diff = a ^ b;
      EXPECT_TRUE(diff == 0 || diff == pow2(benes.transition_dim(t)))
          << "illegal hop at transition " << t;
    }
  }
  // Node-disjointness per stage.
  for (int stage = 0; stage < benes.num_stages(); ++stage) {
    std::vector<bool> used(r, false);
    for (u64 s = 0; s < r; ++s) {
      const u64 row = paths[s][static_cast<std::size_t>(stage)];
      ASSERT_LT(row, r);
      EXPECT_FALSE(used[row]) << "stage " << stage << " row collision";
      used[row] = true;
    }
  }
}

TEST(Benes, StructureCounts) {
  const Benes b(3);
  EXPECT_EQ(b.rows(), 8u);
  EXPECT_EQ(b.num_stages(), 7);
  EXPECT_EQ(b.num_nodes(), 56u);
  EXPECT_EQ(b.num_links(), 96u);
  const Graph g = b.graph();
  EXPECT_EQ(g.num_nodes(), 56u);
  EXPECT_EQ(g.num_edges(), 96u);
  EXPECT_EQ(g.connected_components(), 1u);
}

TEST(Benes, TransitionDimsAscendThenDescend) {
  const Benes b(3);
  const int expected[] = {0, 1, 2, 2, 1, 0};
  for (int t = 0; t < 6; ++t) EXPECT_EQ(b.transition_dim(t), expected[t]);
}

TEST(Benes, RoutesIdentity) {
  const Benes b(3);
  std::vector<u64> perm(8);
  std::iota(perm.begin(), perm.end(), 0);
  validate_routing(b, perm, b.route_permutation(perm));
}

TEST(Benes, RoutesReversal) {
  const Benes b(4);
  std::vector<u64> perm(16);
  for (u64 i = 0; i < 16; ++i) perm[i] = 15 - i;
  validate_routing(b, perm, b.route_permutation(perm));
}

TEST(Benes, RoutesBitReversalPermutation) {
  const Benes b(4);
  std::vector<u64> perm(16);
  for (u64 i = 0; i < 16; ++i) perm[i] = bit_reverse(i, 4);
  validate_routing(b, perm, b.route_permutation(perm));
}

TEST(Benes, RoutesAllPermutationsOfFourExhaustively) {
  // Rearrangeability, checked exhaustively for N = 4.
  const Benes b(2);
  std::vector<u64> perm{0, 1, 2, 3};
  do {
    validate_routing(b, perm, b.route_permutation(perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
}

class BenesRandomPermutations : public ::testing::TestWithParam<int> {};

TEST_P(BenesRandomPermutations, RoutesNodeDisjointly) {
  const int n = GetParam();
  const Benes b(n);
  Xoshiro256 rng(static_cast<u64>(n) * 7919);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u64> perm(b.rows());
    std::iota(perm.begin(), perm.end(), 0);
    // Fisher-Yates with our deterministic PRNG.
    for (u64 i = b.rows() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    validate_routing(b, perm, b.route_permutation(perm));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BenesRandomPermutations, ::testing::Values(1, 2, 3, 4, 5, 6, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           // Appends: GCC 12 reports a false -Wrestrict
                           // inside std::string's operator+.
                           std::string name = "n";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(Benes, RejectsNonPermutations) {
  const Benes b(2);
  EXPECT_THROW(b.route_permutation(std::vector<u64>{0, 0, 1, 2}), InvalidArgument);
  EXPECT_THROW(b.route_permutation(std::vector<u64>{0, 1, 2}), InvalidArgument);
  EXPECT_THROW(b.route_permutation(std::vector<u64>{0, 1, 2, 7}), InvalidArgument);
}

TEST(Benes, DegreeProfile) {
  const Benes b(3);
  const Graph g = b.graph();
  for (u64 u = 0; u < b.rows(); ++u) {
    EXPECT_EQ(g.degree(b.node_id(u, 0)), 2u);
    EXPECT_EQ(g.degree(b.node_id(u, b.num_stages() - 1)), 2u);
    for (int s = 1; s + 1 < b.num_stages(); ++s) {
      EXPECT_EQ(g.degree(b.node_id(u, s)), 4u);
    }
  }
}

}  // namespace
}  // namespace bfly
