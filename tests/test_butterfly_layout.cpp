// Sections 3 and 4: the recursive grid layout of butterfly networks must be
// (a) geometrically legal under the claimed model, (b) structurally faithful
// (every butterfly link appears exactly once, attached to the right nodes),
// and (c) metrically convergent to the paper's closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "layout/butterfly_layout.hpp"
#include "layout/legality.hpp"

namespace bfly {
namespace {

TEST(ButterflyLayoutPlan, ChooseParameters) {
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(3), (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(4), (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(5), (std::vector<int>{2, 2, 1}));
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(9), (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(10), (std::vector<int>{4, 3, 3}));
  EXPECT_EQ(ButterflyLayoutPlan::choose_parameters(11), (std::vector<int>{4, 4, 3}));
  EXPECT_THROW(ButterflyLayoutPlan::choose_parameters(2), InvalidArgument);
}

TEST(ButterflyLayoutPlan, RejectsBadOptions) {
  EXPECT_THROW(ButterflyLayoutPlan({3, 3}, {}), InvalidArgument);  // needs 3 levels
  ButterflyLayoutOptions bad_layers;
  bad_layers.layers = 1;
  EXPECT_THROW(ButterflyLayoutPlan({1, 1, 1}, bad_layers), InvalidArgument);
  ButterflyLayoutOptions bad_node;
  bad_node.node_side = 2;
  EXPECT_THROW(ButterflyLayoutPlan({1, 1, 1}, bad_node), InvalidArgument);
}

TEST(ButterflyLayoutPlan, RowChannelTrackCountMatchesPaper) {
  // Section 3.2 (n = 3k): the number of tracks for a row of blocks is
  // 2^{2n/3}; with L layers each channel folds to ceil(2^{k1+k2+1}/L)
  // positions (Sec. 4.2).
  const ButterflyLayoutPlan plan({3, 3, 3});
  EXPECT_EQ(plan.row_fold().logical_tracks, pow2(6));
  EXPECT_EQ(plan.col_fold().logical_tracks, pow2(6));
  EXPECT_EQ(plan.row_fold().positions, static_cast<i64>(pow2(6)));  // L=2: one group

  ButterflyLayoutOptions l8;
  l8.layers = 8;
  const ButterflyLayoutPlan plan8({3, 3, 3}, l8);
  EXPECT_EQ(plan8.row_fold().groups, 4u);
  EXPECT_EQ(plan8.row_fold().positions, static_cast<i64>(pow2(6) / 4));
}

// Structural fidelity: the materialized wires, read back as a graph, must be
// exactly the swap-butterfly's link multiset.
TEST(ButterflyLayoutPlan, WiresRealizeTheNetwork) {
  const ButterflyLayoutPlan plan({2, 1, 1});
  const SwapButterfly& sb = plan.network();
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
  const Graph g = sb.graph();
  for (const auto& [a, b] : g.edges()) ++want[{a, b}];
  EXPECT_EQ(got, want);
}

class GridLayoutLegality : public ::testing::TestWithParam<std::tuple<std::vector<int>, int>> {};

TEST_P(GridLayoutLegality, LegalUnderMultilayerModel) {
  const auto& [k, layers] = GetParam();
  ButterflyLayoutOptions opt;
  opt.layers = layers;
  const ButterflyLayoutPlan plan(k, opt);
  const Layout layout = plan.materialize();
  const LegalityReport r = check_multilayer(layout);
  EXPECT_TRUE(r.ok) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridLayoutLegality,
    ::testing::Values(std::make_tuple(std::vector<int>{1, 1, 1}, 2),
                      std::make_tuple(std::vector<int>{2, 1, 1}, 2),
                      std::make_tuple(std::vector<int>{2, 2, 1}, 2),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 2),
                      std::make_tuple(std::vector<int>{3, 2, 2}, 2),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 2),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 4),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 4),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 8),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 3),   // odd L
                      std::make_tuple(std::vector<int>{3, 3, 3}, 5),   // odd L
                      std::make_tuple(std::vector<int>{3, 3, 2}, 6)),
    [](const ::testing::TestParamInfo<std::tuple<std::vector<int>, int>>& pinfo) {
      std::string name = "k";
      for (const int v : std::get<0>(pinfo.param)) name += std::to_string(v);
      return name + "_L" + std::to_string(std::get<1>(pinfo.param));
    });

TEST(ButterflyLayoutPlan, ThompsonLegalAtTwoLayers) {
  // The L=2 multilayer layout also satisfies the (more permissive in
  // crossings, stricter over nodes) Thompson discipline, except that the
  // Thompson model does not let wires pass over node squares -- our wiring
  // never does, so the full check must pass.
  const ButterflyLayoutPlan plan({2, 2, 2});
  const Layout layout = plan.materialize();
  const LegalityReport r = check_thompson(layout);
  EXPECT_TRUE(r.ok) << r.summary();
}

void expect_same_metrics(const LayoutMetrics& streamed, const LayoutMetrics& measured) {
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

TEST(ButterflyLayoutPlan, MetricsMatchMaterializedGeometry) {
  for (int n = 3; n <= 10; ++n) {
    for (int L = 2; L <= 8; ++L) {
      for (const bool fold : {false, true}) {
        for (const i64 node_side : {4, 16}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " L=" << L << " fold=" << fold
                                          << " side=" << node_side);
          ButterflyLayoutOptions opt;
          opt.layers = L;
          opt.fold_block_channels = fold;
          opt.node_side = node_side;
          const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n), opt);
          expect_same_metrics(plan.metrics(), plan.materialize().metrics());
        }
      }
    }
  }
}

TEST(ButterflyLayoutPlan, LinkWireLengthsMatchMaterializedWires) {
  // Every materialized wire, mapped to the butterfly's dense link id
  // (stage * rows + rho row) * 2 + cross, has the streamed length.
  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(8));
  const SwapButterfly& net = plan.network();
  const std::vector<i64> lengths = link_wire_lengths(plan);
  ASSERT_EQ(lengths.size(), net.num_links());
  const Layout layout = plan.materialize();
  std::vector<bool> seen(lengths.size(), false);
  for (const Wire& wire : layout.wires()) {
    const int s = net.stage_of(*wire.from_node);
    const u64 r1 = net.rho(s, net.row_of(*wire.from_node));
    const u64 r2 = net.rho(s + 1, net.row_of(*wire.to_node));
    const u64 link = (static_cast<u64>(s) * net.rows() + r1) * 2 + (r1 != r2 ? 1 : 0);
    ASSERT_LT(link, lengths.size());
    EXPECT_FALSE(seen[link]) << link;
    seen[link] = true;
    EXPECT_EQ(lengths[link], wire.length()) << link;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), static_cast<std::ptrdiff_t>(seen.size()));
}

TEST(ButterflyLayoutPlan, AreaApproachesPaperFormula) {
  // Thompson model: area -> N^2 / log2(N)^2 * (1 + o(1)), i.e. 2^{2n} for an
  // N = (n+1) 2^n node butterfly.  The o(1) term is the Theta(2^{n/3})
  // block side against the Theta(2^{2n/3}) channels, so convergence is slow
  // in n; the unit test asserts the ratio is strictly decreasing (the bench
  // tabulates larger n via the streaming metrics).
  double prev_ratio = 1e30;
  for (const int n : {6, 9, 12}) {
    const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(n));
    const double area = static_cast<double>(plan.metrics().area);
    const double formula = std::pow(2.0, 2 * n);
    const double ratio = area / formula;
    EXPECT_GT(ratio, 1.0) << n;  // the Avior et al. lower bound is fundamental
    EXPECT_LT(ratio, prev_ratio) << n;
    prev_ratio = ratio;
  }
  EXPECT_LT(prev_ratio, 3.2);  // n = 12: cell = channel + ~0.8x block overhead
}

TEST(ButterflyLayoutPlan, MaxWireApproachesPaperFormula) {
  // Max wire length -> 2N / (L log2 N) = 2^{n+1} / L plus an o() detour
  // through block-internal channels; the detour is L-independent, so the
  // measured/formula ratio grows with L at fixed n but the wire still
  // shrinks monotonically with L (the paper's actual claim).
  double prev = 1e30;
  for (const int L : {2, 4}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    const ButterflyLayoutPlan plan({4, 4, 4}, opt);
    const double measured = static_cast<double>(plan.metrics().max_wire_length);
    const double formula = std::pow(2.0, 13) / L;
    EXPECT_GT(measured / formula, 1.0);
    EXPECT_LT(measured / formula, 2.2 * (L / 2.0));
    EXPECT_LT(measured, prev);
    prev = measured;
  }
}

TEST(ButterflyLayoutPlan, MultilayerAreaScalesAsOneOverLSquared) {
  // Theorem 4.1 (even L): area = 4 N^2 / (L^2 log^2 N) (1 + o(1)).  The
  // channel positions shrink exactly as 1/(L/2); the block term does not, so
  // measured area sits between the pure-channel prediction and the L=2 area.
  const ButterflyLayoutPlan base({4, 4, 4});
  const double a2 = static_cast<double>(base.metrics().area);
  double prev = 1e30;
  for (const int L : {4, 8}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    const ButterflyLayoutPlan plan({4, 4, 4}, opt);
    const double aL = static_cast<double>(plan.metrics().area);
    const double channel_prediction = a2 * 4.0 / (L * L);
    EXPECT_GT(aL, channel_prediction);
    EXPECT_LT(aL, a2);
    EXPECT_LT(aL, prev);
    prev = aL;
    // The folded channel geometry itself is exact.
    EXPECT_EQ(plan.row_fold().positions, static_cast<i64>(pow2(8)) / (L / 2));
  }
}

TEST(ButterflyLayoutPlan, NodeSizeScalability) {
  // Section 3: node side W = o(sqrt(N)/log N) leaves the leading constant of
  // the area unchanged.  Here: doubling the node side of a small layout must
  // increase area by far less than 4x (channels dominate).
  ButterflyLayoutOptions small;
  small.node_side = 4;
  ButterflyLayoutOptions big;
  big.node_side = 8;
  const double a_small =
      static_cast<double>(ButterflyLayoutPlan({3, 3, 3}, small).metrics().area);
  const double a_big = static_cast<double>(ButterflyLayoutPlan({3, 3, 3}, big).metrics().area);
  EXPECT_LT(a_big / a_small, 2.0);
}

TEST(ButterflyLayoutPlan, LargerNodesStillLegal) {
  ButterflyLayoutOptions opt;
  opt.node_side = 7;
  const ButterflyLayoutPlan plan({2, 2, 1}, opt);
  const LegalityReport r = check_multilayer(plan.materialize());
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(ButterflyLayoutPlan, OddLayerCountMatchesTheorem) {
  // Theorem 4.1 (odd L): area = 4 N^2 / ((L^2-1) log^2 N) (1 + o(1)):
  // check the channel folding geometry directly.
  ButterflyLayoutOptions opt;
  opt.layers = 5;
  const ButterflyLayoutPlan plan({4, 4, 4}, opt);
  // Horizontal: (L+1)/2 = 3 groups; vertical: (L-1)/2 = 2 groups.  With
  // k1 = k2 = k3 = 4 the logical per-channel track count is
  // 2^{k1+k2} = 256 positions (x2 layers in Thompson terms), so the paper's
  // ceil(2^{k1+k2+1}/(L+1)) horizontal positions equal ceil(256/3).
  EXPECT_EQ(plan.row_fold().groups, 3u);
  EXPECT_EQ(plan.col_fold().groups, 2u);
  EXPECT_EQ(plan.row_fold().positions,
            static_cast<i64>(ceil_div(static_cast<i64>(pow2(8)), 3)));
  EXPECT_EQ(plan.col_fold().positions, static_cast<i64>(pow2(8) / 2));
}

// ---------------------------------------------------------------------------
// fold_block_channels: the intra-block channels fold across layer groups too.
// ---------------------------------------------------------------------------

class FoldedBlockLegality : public ::testing::TestWithParam<std::tuple<std::vector<int>, int>> {};

TEST_P(FoldedBlockLegality, LegalUnderMultilayerModel) {
  const auto& [k, layers] = GetParam();
  ButterflyLayoutOptions opt;
  opt.layers = layers;
  opt.fold_block_channels = true;
  const ButterflyLayoutPlan plan(k, opt);
  const LegalityReport r = check_multilayer(plan.materialize());
  EXPECT_TRUE(r.ok) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FoldedBlockLegality,
    ::testing::Values(std::make_tuple(std::vector<int>{2, 2, 2}, 2),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 4),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 4),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 8),
                      std::make_tuple(std::vector<int>{3, 2, 2}, 4),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 5),
                      std::make_tuple(std::vector<int>{3, 3, 2}, 6),
                      std::make_tuple(std::vector<int>{2, 2, 1}, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::vector<int>, int>>& pinfo) {
      std::string name = "k";
      for (const int v : std::get<0>(pinfo.param)) name += std::to_string(v);
      return name + "_L" + std::to_string(std::get<1>(pinfo.param));
    });

TEST(FoldedBlocks, StillRealizesTheNetwork) {
  ButterflyLayoutOptions opt;
  opt.layers = 4;
  opt.fold_block_channels = true;
  const ButterflyLayoutPlan plan({2, 2, 1}, opt);
  const SwapButterfly& sb = plan.network();
  std::map<std::pair<u64, u64>, u64> got;
  plan.for_each_wire([&](const InlineWire& w) {
    u64 a = *w.from_node;
    u64 b = *w.to_node;
    if (a > b) std::swap(a, b);
    ++got[{a, b}];
  });
  std::map<std::pair<u64, u64>, u64> want;
  const Graph g = sb.graph();
  for (const auto& [a, b] : g.edges()) ++want[{a, b}];
  EXPECT_EQ(got, want);
}

TEST(FoldedBlocks, ShrinksBlocksWithL) {
  // The unfolded blocks are L-independent; folded blocks shrink ~ L/2.
  ButterflyLayoutOptions base;
  base.layers = 8;
  const ButterflyLayoutPlan plain({3, 3, 3}, base);
  ButterflyLayoutOptions folded = base;
  folded.fold_block_channels = true;
  const ButterflyLayoutPlan fold({3, 3, 3}, folded);
  EXPECT_LT(fold.block_width(), plain.block_width());
  EXPECT_LT(fold.block_height(), plain.block_height());
  EXPECT_LT(fold.metrics().area, plain.metrics().area);
}

TEST(FoldedBlocks, NoChangeAtTwoLayers) {
  // With L = 2 there is a single group, so folding is a no-op for the
  // channel *widths* (cell dimensions identical); the rank reordering can
  // shift which extreme tracks are occupied, moving the bounding box by a
  // few grid units.
  const ButterflyLayoutPlan plain({2, 2, 2});
  ButterflyLayoutOptions folded;
  folded.fold_block_channels = true;
  const ButterflyLayoutPlan fold({2, 2, 2}, folded);
  EXPECT_EQ(plain.cell_width(), fold.cell_width());
  EXPECT_EQ(plain.cell_height(), fold.cell_height());
  EXPECT_NEAR(static_cast<double>(fold.metrics().area),
              static_cast<double>(plain.metrics().area),
              0.03 * static_cast<double>(plain.metrics().area));
}

TEST(FoldedBlocks, ImprovesTheoremRatio) {
  // At n = 12, L = 8 the folded construction must be substantially closer to
  // the 4 N^2/(L^2 log^2 N) leading term than the plain one.
  ButterflyLayoutOptions opt;
  opt.layers = 8;
  const double formula = 4.0 * std::pow(2.0, 24) / 64.0;
  const double plain =
      static_cast<double>(ButterflyLayoutPlan({4, 4, 4}, opt).metrics().area) / formula;
  opt.fold_block_channels = true;
  const double folded =
      static_cast<double>(ButterflyLayoutPlan({4, 4, 4}, opt).metrics().area) / formula;
  EXPECT_LT(folded, 0.55 * plain);
}

TEST(ButterflyLayoutPlan, LayersUsedNeverExceedL) {
  for (const int L : {2, 3, 4, 5, 8}) {
    ButterflyLayoutOptions opt;
    opt.layers = L;
    const ButterflyLayoutPlan plan({2, 2, 2}, opt);
    EXPECT_LE(plan.metrics().num_layers, L) << L;
  }
}

}  // namespace
}  // namespace bfly
