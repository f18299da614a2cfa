// Grid layouts of hypercubes (the conclusion's "other networks" extension).
#include <gtest/gtest.h>

#include <map>

#include "layout/hypercube_layout.hpp"
#include "layout/legality.hpp"
#include "topology/hypercube.hpp"

namespace bfly {
namespace {

TEST(HypercubeLayout, SplitsDimensions) {
  const HypercubeLayoutPlan plan(7);
  EXPECT_EQ(plan.row_dims() + plan.col_dims(), 7);
  EXPECT_EQ(plan.grid_rows() * plan.grid_cols(), pow2(7));
}

TEST(HypercubeLayout, WiresRealizeTheHypercube) {
  const HypercubeLayoutPlan plan(6);
  std::map<std::pair<u64, u64>, u64> got;
  plan.for_each_wire([&](const InlineWire& w) {
    ASSERT_TRUE(w.from_node.has_value());
    ASSERT_TRUE(w.to_node.has_value());
    u64 a = *w.from_node;
    u64 b = *w.to_node;
    if (a > b) std::swap(a, b);
    ++got[{a, b}];
  });
  std::map<std::pair<u64, u64>, u64> want;
  const Graph g = Hypercube(6).graph();
  for (const auto& [a, b] : g.edges()) ++want[{a, b}];
  EXPECT_EQ(got, want);
}

TEST(HypercubeLayout, MetricsMatchMaterializedGeometry) {
  for (int n = 2; n <= 10; ++n) {
    for (const int L : {2, 3, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " L=" << L);
      HypercubeLayoutOptions opt;
      opt.layers = L;
      const HypercubeLayoutPlan plan(n, opt);
      const LayoutMetrics streamed = plan.metrics();
      const LayoutMetrics measured = plan.materialize().metrics();
      EXPECT_EQ(streamed.width, measured.width);
      EXPECT_EQ(streamed.height, measured.height);
      EXPECT_EQ(streamed.area, measured.area);
      EXPECT_EQ(streamed.max_wire_length, measured.max_wire_length);
      EXPECT_EQ(streamed.total_wire_length, measured.total_wire_length);
      EXPECT_EQ(streamed.num_layers, measured.num_layers);
      EXPECT_EQ(streamed.volume, measured.volume);
      EXPECT_EQ(streamed.num_nodes, measured.num_nodes);
      EXPECT_EQ(streamed.num_wires, measured.num_wires);
    }
  }
}

class HypercubeLegality : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HypercubeLegality, LegalUnderBothModels) {
  const auto [n, L] = GetParam();
  HypercubeLayoutOptions opt;
  opt.layers = L;
  const HypercubeLayoutPlan plan(n, opt);
  const Layout layout = plan.materialize();
  const LegalityReport multi = check_multilayer(layout);
  EXPECT_TRUE(multi.ok) << multi.summary();
  if (L == 2) {
    const LegalityReport thompson = check_thompson(layout);
    EXPECT_TRUE(thompson.ok) << thompson.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HypercubeLegality,
                         ::testing::Values(std::make_tuple(2, 2), std::make_tuple(4, 2),
                                           std::make_tuple(5, 2), std::make_tuple(6, 2),
                                           std::make_tuple(8, 2), std::make_tuple(10, 2),
                                           std::make_tuple(8, 4), std::make_tuple(8, 6),
                                           std::make_tuple(9, 3), std::make_tuple(10, 8)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
                           // Appends: GCC 12 reports a false -Wrestrict
                           // inside std::string's operator+.
                           std::string name = "n";
                           name += std::to_string(std::get<0>(pinfo.param));
                           name += "_L";
                           name += std::to_string(std::get<1>(pinfo.param));
                           return name;
                         });

TEST(HypercubeLayout, MetricsMatchGeometry) {
  const HypercubeLayoutPlan plan(8);
  const LayoutMetrics streamed = plan.metrics();
  const LayoutMetrics measured = plan.materialize().metrics();
  EXPECT_EQ(streamed.area, measured.area);
  EXPECT_EQ(streamed.max_wire_length, measured.max_wire_length);
  EXPECT_EQ(streamed.num_wires, measured.num_wires);
}

TEST(HypercubeLayout, AreaWithinConstantOfLowerBound) {
  // Thompson lower bound: (N/2)^2.  The grid layout stays within a modest
  // constant that shrinks as n grows.
  double prev = 1e30;
  for (const int n : {8, 10, 12, 14}) {
    const HypercubeLayoutPlan plan(n);
    const double ratio =
        static_cast<double>(plan.metrics().area) / HypercubeLayoutPlan::area_lower_bound(n);
    EXPECT_GT(ratio, 1.0) << n;
    EXPECT_LT(ratio, prev * 1.05) << n;  // non-increasing (mod parity wobble)
    prev = ratio;
  }
  EXPECT_LT(prev, 12.0);
}

TEST(HypercubeLayout, MultilayerShrinksArea) {
  HypercubeLayoutOptions l2;
  HypercubeLayoutOptions l8;
  l8.layers = 8;
  const double a2 = static_cast<double>(HypercubeLayoutPlan(12, l2).metrics().area);
  const double a8 = static_cast<double>(HypercubeLayoutPlan(12, l8).metrics().area);
  EXPECT_LT(a8, a2 / 2.5);
}

TEST(HypercubeLayout, RejectsBadOptions) {
  EXPECT_THROW(HypercubeLayoutPlan(1), InvalidArgument);
  HypercubeLayoutOptions tiny;
  tiny.node_side = 3;
  EXPECT_THROW(HypercubeLayoutPlan(8, tiny), InvalidArgument);
  HypercubeLayoutOptions one_layer;
  one_layer.layers = 1;
  EXPECT_THROW(HypercubeLayoutPlan(8, one_layer), InvalidArgument);
}

}  // namespace
}  // namespace bfly
