// Randomized hardening of the legality checkers.
//
// Strategy: generate random *legal-by-construction* channel layouts (nodes
// in two rows, channel wires on private tracks with private terminal
// columns), assert the checkers accept them; then apply single random
// mutations that each break exactly one rule and assert the checkers reject.
// This guards the verifiers that everything else in the library leans on.
#include <gtest/gtest.h>

#include "layout/butterfly_layout.hpp"
#include "layout/legality.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

struct RandomChannel {
  Layout layout;
  i64 track_y0 = 0;
  u64 num_wires = 0;
  i64 side = 0;   ///< node side
  i64 pitch = 0;  ///< node pitch along a row; columns side..pitch-1 are gaps
};

/// Two facing rows of nodes connected through a channel; wire i uses its own
/// terminal columns and its own track, with a random layer pair, so the
/// result is legal under both models by construction.
RandomChannel make_channel(u64 seed, u64 nodes_per_row, int max_layer_pairs) {
  Xoshiro256 rng(seed);
  RandomChannel ch;
  const i64 side = 8;
  const u64 wires = nodes_per_row * 4;  // 4 terminals per bottom node
  const i64 channel_height = static_cast<i64>(wires) + 2;
  const i64 top_row_y = side + channel_height;
  ch.track_y0 = side + 1;
  ch.num_wires = wires;
  ch.side = side;
  ch.pitch = side + 2;

  for (u64 i = 0; i < nodes_per_row; ++i) {
    ch.layout.add_node(i, Rect::square(static_cast<i64>(i) * (side + 2), 0, side));
    ch.layout.add_node(1000 + i,
                       Rect::square(static_cast<i64>(i) * (side + 2), top_row_y, side));
  }
  // Random private track per wire (a shuffled permutation) and random layer
  // pair; terminals are unique per wire by construction (each wire has its
  // own source slot w%4 and its own destination slot w/nodes_per_row).
  std::vector<u64> track_of(wires);
  for (u64 w = 0; w < wires; ++w) track_of[w] = w;
  for (u64 i = wires - 1; i > 0; --i) std::swap(track_of[i], track_of[rng.below(i + 1)]);
  for (u64 w = 0; w < wires; ++w) {
    const u64 from = w / 4;
    const u64 to = w % nodes_per_row;
    const i64 from_x = static_cast<i64>(from) * (side + 2) + static_cast<i64>(w % 4);
    // Private terminal column on the destination node: offsets 4..7.
    const i64 to_x = static_cast<i64>(to) * (side + 2) + 4 + static_cast<i64>(w / nodes_per_row);
    const i64 track = ch.track_y0 + static_cast<i64>(track_of[w]);
    const int pair = static_cast<int>(rng.below(static_cast<u64>(max_layer_pairs)));
    const int v_layer = 2 * pair + 1;
    const int h_layer = 2 * pair + 2;
    ch.layout.add_wire(WireBuilder(Point{from_x, side - 1})
                           .from(from)
                           .to_y(track, v_layer)
                           .to_x(to_x, h_layer)
                           .to_y(top_row_y, v_layer)
                           .to(1000 + to)
                           .build());
  }
  return ch;
}

class ChannelFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ChannelFuzz, GeneratedChannelsAreLegal) {
  const RandomChannel ch = make_channel(GetParam(), 6, 3);
  const LegalityReport multi = check_multilayer(ch.layout);
  EXPECT_TRUE(multi.ok) << multi.summary();
}

TEST_P(ChannelFuzz, TwoLayerChannelsAreThompsonLegal) {
  const RandomChannel ch = make_channel(GetParam() ^ 0xabcd, 5, 1);
  const LegalityReport thompson = check_thompson(ch.layout);
  EXPECT_TRUE(thompson.ok) << thompson.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz, ::testing::Range<u64>(1, 21),
                         [](const ::testing::TestParamInfo<u64>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// Mutations: each must be detected.
// ---------------------------------------------------------------------------

Layout mutate(const Layout& base, const std::function<void(std::vector<Wire>&)>& fn) {
  std::vector<Wire> wires(base.wires().begin(), base.wires().end());
  fn(wires);
  Layout out;
  for (const PlacedNode& n : base.nodes()) out.add_node(n.id, n.rect);
  for (Wire& w : wires) out.add_wire(std::move(w));
  return out;
}

class MutationFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(MutationFuzz, DuplicatedWireIsRejected) {
  const RandomChannel ch = make_channel(GetParam(), 5, 2);
  Xoshiro256 rng(GetParam() * 31);
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    wires.push_back(wires[rng.below(wires.size())]);  // exact overlap
  });
  EXPECT_FALSE(check_multilayer(mutated).ok);
}

TEST_P(MutationFuzz, TrackCollisionIsRejected) {
  const RandomChannel ch = make_channel(GetParam() ^ 0x1111, 5, 1);
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    // Move one wire's horizontal run onto the track of another wire whose
    // x-span overlaps it (such a pair always exists in these channels).
    for (std::size_t a = 0; a < wires.size(); ++a) {
      const Interval sa = make_interval(wires[a].points[1].x, wires[a].points[2].x);
      for (std::size_t b = a + 1; b < wires.size(); ++b) {
        const Interval sb = make_interval(wires[b].points[1].x, wires[b].points[2].x);
        if (!sa.overlaps(sb)) continue;
        wires[b].points[1].y = wires[a].points[1].y;
        wires[b].points[2].y = wires[a].points[2].y;
        return;
      }
    }
    FAIL() << "no overlapping pair found";
  });
  // Same track + same layer: either an overlap or an endpoint contact.
  EXPECT_FALSE(check_multilayer(mutated).ok);
}

TEST_P(MutationFuzz, DetachedTerminalIsRejected) {
  const RandomChannel ch = make_channel(GetParam() ^ 0x2222, 5, 2);
  Xoshiro256 rng(GetParam() * 41);
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    Wire& w = wires[rng.below(wires.size())];
    w.points.front().x += 1000;  // starts in free space now
    w.points[1].x += 1000;
  });
  EXPECT_FALSE(check_multilayer(mutated).ok);
  EXPECT_FALSE(check_thompson(mutated).ok);
}

TEST_P(MutationFuzz, LayerSquashIsRejected) {
  // Forcing every segment onto layer 1 creates same-layer crossings.
  const RandomChannel ch = make_channel(GetParam() ^ 0x3333, 6, 3);
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    for (Wire& w : wires) {
      for (int& layer : w.layers) layer = 1;
    }
  });
  EXPECT_FALSE(check_multilayer(mutated).ok);
}

TEST_P(MutationFuzz, HorizontalThroughForeignNodeIsRejected) {
  // A free layer-1 horizontal run through the middle of a bottom-row node:
  // only the transposed node-clearance sweep sees it (no other wire has a
  // segment or via there).
  const RandomChannel ch = make_channel(GetParam() ^ 0x4444, 5, 2);
  Xoshiro256 rng(GetParam() * 43);
  const i64 node = static_cast<i64>(rng.below(5));
  const i64 y = static_cast<i64>(rng.below(static_cast<u64>(ch.side - 1)));  // below the terminals
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    wires.push_back(WireBuilder(Point{node * ch.pitch - 1, y})
                        .to_x(node * ch.pitch + ch.side, 1)
                        .build());
  });
  EXPECT_TRUE(check_multilayer(ch.layout).ok);
  const LegalityReport r = check_multilayer(mutated);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.summary().find("multilayer(h): wire"), std::string::npos) << r.summary();
}

TEST_P(MutationFuzz, ViaThroughForeignSegmentIsRejected) {
  // A new wire bends at a gap column on another wire's horizontal run, from
  // the layer below that run to the layer above: its via passes through the
  // run, and only the via-vs-segment index sees it (gap columns hold no
  // other vertical, and no other wire runs horizontally on odd layers).
  const RandomChannel ch = make_channel(GetParam() ^ 0x5555, 5, 3);
  Xoshiro256 rng(GetParam() * 47);
  const Layout mutated = mutate(ch.layout, [&](std::vector<Wire>& wires) {
    const std::size_t start = rng.below(wires.size());
    for (std::size_t k = 0; k < wires.size(); ++k) {
      const Wire& victim = wires[(start + k) % wires.size()];
      // The channel run: points[1] -> points[2] on the wire's H layer.
      const i64 y = victim.points[1].y;
      const i64 lo = std::min(victim.points[1].x, victim.points[2].x);
      const i64 hi = std::max(victim.points[1].x, victim.points[2].x);
      const int h_layer = victim.layers[1];
      const i64 gap = (lo / ch.pitch) * ch.pitch + ch.side;  // first gap column at or after lo
      if (gap <= lo || gap >= hi) continue;
      wires.push_back(WireBuilder(Point{gap, y - 1})
                          .to_y(y, h_layer - 1)
                          .to_x(gap + 1, h_layer + 1)
                          .build());
      return;
    }
    FAIL() << "no channel run spans a gap column";
  });
  EXPECT_TRUE(check_multilayer(ch.layout).ok);
  const LegalityReport r = check_multilayer(mutated);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.summary().find("collides with wire"), std::string::npos) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range<u64>(1, 11),
                         [](const ::testing::TestParamInfo<u64>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// The big constructions, fuzzed across node sizes and seeds of shape:
// every (k, L, W) combination here must produce a legal multilayer layout.
class ConstructionSweep
    : public ::testing::TestWithParam<std::tuple<std::vector<int>, int, i64, bool>> {};

TEST_P(ConstructionSweep, AlwaysLegal) {
  const auto& [k, L, node_side, fold] = GetParam();
  ButterflyLayoutOptions opt;
  opt.layers = L;
  opt.node_side = node_side;
  opt.fold_block_channels = fold;
  const ButterflyLayoutPlan plan(k, opt);
  const LegalityReport r = check_multilayer(plan.materialize());
  EXPECT_TRUE(r.ok) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConstructionSweep,
    ::testing::Values(std::make_tuple(std::vector<int>{2, 2, 2}, 2, 5, false),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 3, 6, false),
                      std::make_tuple(std::vector<int>{3, 2, 2}, 4, 4, true),
                      std::make_tuple(std::vector<int>{2, 1, 1}, 2, 9, false),
                      std::make_tuple(std::vector<int>{3, 3, 1}, 6, 4, true),
                      std::make_tuple(std::vector<int>{2, 2, 2}, 5, 4, true),
                      std::make_tuple(std::vector<int>{3, 3, 3}, 7, 4, true),
                      std::make_tuple(std::vector<int>{1, 1, 1}, 4, 4, true)),
    [](const ::testing::TestParamInfo<std::tuple<std::vector<int>, int, i64, bool>>& pinfo) {
      std::string name = "k";
      for (const int v : std::get<0>(pinfo.param)) name += std::to_string(v);
      name += "_L" + std::to_string(std::get<1>(pinfo.param));
      name += "_W" + std::to_string(std::get<2>(pinfo.param));
      if (std::get<3>(pinfo.param)) name += "_fold";
      return name;
    });

// Regression guard: the checkers' segment and via counts for the butterfly
// constructions, recorded before the checkers moved to flat structures.  The
// counts depend on n alone (not on L or block folding).
TEST(ConstructionCounts, MatchRecordedSegmentAndViaCounts) {
  const struct {
    int n;
    u64 segments;
    u64 vias;
  } recorded[] = {{6, 2880, 3648}, {8, 14720, 18816}, {10, 72192, 92672}};
  for (const auto& rec : recorded) {
    for (const int L : {2, 3, 4, 8}) {
      for (const bool fold : {false, true}) {
        SCOPED_TRACE(testing::Message() << "n=" << rec.n << " L=" << L << " fold=" << fold);
        ButterflyLayoutOptions opt;
        opt.layers = L;
        opt.fold_block_channels = fold;
        const Layout layout =
            ButterflyLayoutPlan(ButterflyLayoutPlan::choose_parameters(rec.n), opt).materialize();
        const LegalityReport multi = check_multilayer(layout);
        EXPECT_TRUE(multi.ok) << multi.summary();
        EXPECT_EQ(multi.segments_checked, rec.segments);
        EXPECT_EQ(multi.vias_checked, rec.vias);
        if (L == 2) {
          const LegalityReport thompson = check_thompson(layout);
          EXPECT_TRUE(thompson.ok) << thompson.summary();
          EXPECT_EQ(thompson.segments_checked, rec.segments);
          EXPECT_EQ(thompson.vias_checked, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bfly
