// Product-network grid layouts: tori / k-ary n-cubes, meshes, Hamming
// graphs, and hypercubes through one generator.
#include <gtest/gtest.h>

#include "layout/hypercube_layout.hpp"
#include "layout/legality.hpp"
#include <map>

#include "layout/product_layout.hpp"
#include "topology/basic_graphs.hpp"
#include "topology/complete_graph.hpp"
#include "topology/hypercube.hpp"

namespace bfly {
namespace {

TEST(BasicGraphs, PathCycleTorus) {
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_EQ(cycle_graph(5).num_edges(), 5u);
  const Graph t = torus_graph(4, 2);
  EXPECT_EQ(t.num_nodes(), 16u);
  EXPECT_EQ(t.num_edges(), 32u);  // 2 links per node per digit / 2
  const auto h = t.degree_histogram();
  EXPECT_EQ(h[4], 16u);  // 4-regular
  // k = 2 degenerates to the hypercube.
  EXPECT_TRUE(torus_graph(2, 3).same_as(Hypercube(3).graph()));
}

TEST(ProductLayout, RealizesTheProductGraph) {
  const ProductLayoutPlan plan(cycle_graph(4), cycle_graph(6));
  std::map<std::pair<u64, u64>, u64> got;
  plan.for_each_wire([&](const InlineWire& w) {
    u64 a = *w.from_node;
    u64 b = *w.to_node;
    if (a > b) std::swap(a, b);
    ++got[{a, b}];
  });
  std::map<std::pair<u64, u64>, u64> want;
  const Graph g = plan.product_graph();
  for (const auto& [a, b] : g.edges()) ++want[{a, b}];
  EXPECT_EQ(got, want);
  EXPECT_EQ(g.num_nodes(), 24u);
  EXPECT_EQ(g.num_edges(), 4u * 6 + 6u * 4);  // C4 x C6 torus
}

TEST(ProductLayout, MetricsMatchMaterializedGeometry) {
  const std::pair<Graph, Graph> factors[] = {{cycle_graph(4), cycle_graph(6)},
                                              {torus_graph(3, 2), path_graph(5)},
                                              {Hypercube(3).graph(), Hypercube(4).graph()}};
  for (const auto& [rows, cols] : factors) {
    for (const int L : {2, 3, 4, 8}) {
      SCOPED_TRACE(testing::Message() << rows.num_nodes() << "x" << cols.num_nodes() << " L=" << L);
      ProductLayoutOptions opt;
      opt.layers = L;
      const ProductLayoutPlan plan(rows, cols, opt);
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

TEST(ProductLayout, HypercubeAsProductMatchesDedicatedPlan) {
  // Q_8 = Q_4 x Q_4: the generic product layout and the dedicated hypercube
  // plan wire the same graph (areas differ only via channel details).
  const ProductLayoutPlan generic(Hypercube(4).graph(), Hypercube(4).graph());
  EXPECT_TRUE(generic.product_graph().same_as(Hypercube(8).graph()));
  const HypercubeLayoutPlan dedicated(8);
  const double a1 = static_cast<double>(generic.metrics().area);
  const double a2 = static_cast<double>(dedicated.metrics().area);
  EXPECT_LT(std::abs(a1 - a2) / a2, 0.5);
}

class ProductLegality : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ProductLegality, TorusLayoutsAreLegal) {
  const auto [k, d_split, L] = GetParam();
  ProductLayoutOptions opt;
  opt.layers = L;
  const ProductLayoutPlan plan(torus_graph(static_cast<u64>(k), d_split),
                               torus_graph(static_cast<u64>(k), d_split), opt);
  const LegalityReport r = check_multilayer(plan.materialize());
  EXPECT_TRUE(r.ok) << r.summary();
  if (L == 2) {
    const LegalityReport t = check_thompson(plan.materialize());
    EXPECT_TRUE(t.ok) << t.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Tori, ProductLegality,
                         ::testing::Values(std::make_tuple(3, 1, 2), std::make_tuple(4, 1, 2),
                                           std::make_tuple(5, 1, 4), std::make_tuple(4, 2, 2),
                                           std::make_tuple(3, 2, 4), std::make_tuple(4, 2, 6),
                                           std::make_tuple(8, 1, 3)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& pinfo) {
                           return "k" + std::to_string(std::get<0>(pinfo.param)) + "d" +
                                  std::to_string(std::get<1>(pinfo.param)) + "_L" +
                                  std::to_string(std::get<2>(pinfo.param));
                         });

TEST(ProductLegality, MixedFactorsAreLegal) {
  // Mesh (paths), complete-by-cycle, and complete-by-complete (Hamming).
  for (const auto& [gr, gc] : {
           std::pair<Graph, Graph>{path_graph(7), path_graph(9)},
           std::pair<Graph, Graph>{CompleteGraph(5).graph(), cycle_graph(8)},
           std::pair<Graph, Graph>{CompleteGraph(4).graph(), CompleteGraph(6).graph()},
       }) {
    const ProductLayoutPlan plan(gr, gc);
    const LegalityReport r = check_multilayer(plan.materialize());
    EXPECT_TRUE(r.ok) << r.summary();
  }
}

TEST(ProductLayout, FoldingShrinksChannels) {
  ProductLayoutOptions l2;
  ProductLayoutOptions l6;
  l6.layers = 6;
  const Graph q5 = Hypercube(5).graph();
  const double a2 = static_cast<double>(ProductLayoutPlan(q5, q5, l2).metrics().area);
  const double a6 = static_cast<double>(ProductLayoutPlan(q5, q5, l6).metrics().area);
  EXPECT_LT(a6, a2 / 1.8);
}

TEST(ProductLayout, MeshChannelsAreNarrow) {
  // Paths need exactly one track per channel (all intervals overlap only in
  // chains), so mesh layouts are nearly node-limited.
  const ProductLayoutPlan plan(path_graph(8), path_graph(8));
  EXPECT_EQ(plan.row_channel_tracks(), 1u);
  EXPECT_EQ(plan.col_channel_tracks(), 1u);
}

TEST(ProductLayout, RejectsBadInputs) {
  Graph loop(2);
  loop.add_edge(0, 0);
  EXPECT_THROW(ProductLayoutPlan(loop, path_graph(2)), InvalidArgument);
  ProductLayoutOptions tiny;
  tiny.node_side = 2;
  EXPECT_THROW(ProductLayoutPlan(path_graph(3), path_graph(3), tiny), InvalidArgument);
}

}  // namespace
}  // namespace bfly
