// Geometry container, wire builder, and track assignment.
#include <gtest/gtest.h>

#include "layout/layout.hpp"
#include "layout/track_assign.hpp"

namespace bfly {
namespace {

TEST(Geometry, RectBasics) {
  const Rect r = Rect::square(2, 3, 4);
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 16);
  EXPECT_TRUE(r.contains({2, 3}));
  EXPECT_TRUE(r.contains({5, 6}));
  EXPECT_FALSE(r.contains({6, 6}));
  EXPECT_FALSE(Rect{}.contains({0, 0}));
}

TEST(Geometry, RectIntersectsAndUnites) {
  const Rect a{0, 0, 3, 3};
  const Rect b{3, 3, 5, 5};
  const Rect c{4, 0, 6, 2};
  EXPECT_TRUE(a.intersects(b));  // closed rects share (3,3)
  EXPECT_FALSE(a.intersects(c));
  const Rect u = a.united(c);
  EXPECT_EQ(u, (Rect{0, 0, 6, 3}));
  EXPECT_EQ(Rect{}.united(a), a);
}

TEST(Geometry, IntervalBasics) {
  const Interval iv{2, 5};
  EXPECT_EQ(iv.length(), 4);
  EXPECT_TRUE(iv.contains(2));
  EXPECT_TRUE(iv.contains(5));
  EXPECT_FALSE(iv.contains(6));
  EXPECT_TRUE(iv.overlaps({5, 9}));
  EXPECT_FALSE(iv.overlaps({6, 9}));
  EXPECT_EQ(make_interval(7, 3), (Interval{3, 7}));
}

TEST(Wire, LengthAndBbox) {
  const Wire w = WireBuilder(Point{0, 0}).to_y(5, 1).to_x(3, 2).to_y(2, 1).build();
  EXPECT_EQ(w.length(), 5 + 3 + 3);
  EXPECT_EQ(w.bbox(), (Rect{0, 0, 3, 5}));
  EXPECT_EQ(w.num_segments(), 3u);
}

TEST(Wire, BuilderSkipsNoopMoves) {
  const Wire w = WireBuilder(Point{0, 0}).to_x(0, 2).to_y(4, 1).to_y(4, 1).to_x(2, 2).build();
  EXPECT_EQ(w.num_segments(), 2u);
}

TEST(Wire, BuilderRequiresSegment) {
  EXPECT_THROW(WireBuilder(Point{1, 1}).build(), InvalidArgument);
}

TEST(Wire, BuilderHoldsUpToItsInlineCapacity) {
  // kMaxWirePoints points fit in place; one more is an internal error.
  WireBuilder b(Point{0, 0});
  for (std::size_t i = 1; i < kMaxWirePoints; ++i) {
    const i64 step = static_cast<i64>(i);
    if (i % 2 == 1) {
      b.to_x(step, 1);
    } else {
      b.to_y(step, 2);
    }
  }
  const InlineWire& w = b.wire();
  EXPECT_EQ(w.points().size(), kMaxWirePoints);
  EXPECT_EQ(w.layers().size(), kMaxWirePoints - 1);
  EXPECT_EQ(b.build().points.size(), kMaxWirePoints);
  EXPECT_THROW(b.to_x(-1, 1), InternalError);
}

TEST(Layout, NodeAndWireAccounting) {
  Layout layout;
  layout.add_node(7, Rect::square(0, 0, 4));
  layout.add_node(9, Rect::square(10, 0, 4));
  layout.add_wire(WireBuilder(Point{3, 1}).from(7).to_y(6, 1).to_x(10, 2).to_y(1, 1).to(9).build());
  EXPECT_TRUE(layout.has_node(7));
  EXPECT_FALSE(layout.has_node(8));
  EXPECT_EQ(layout.node(9).rect.x0, 10);

  const LayoutMetrics m = layout.metrics();
  EXPECT_EQ(m.num_nodes, 2u);
  EXPECT_EQ(m.num_wires, 1u);
  EXPECT_EQ(m.width, 14);
  EXPECT_EQ(m.height, 7);
  EXPECT_EQ(m.area, 98);
  EXPECT_EQ(m.max_wire_length, 5 + 7 + 5);
  EXPECT_EQ(m.num_layers, 2);
  EXPECT_EQ(m.volume, 2 * 98);
}

TEST(Layout, RejectsMalformedWires) {
  Layout layout;
  Wire diagonal;
  diagonal.points = {{0, 0}, {1, 1}};
  diagonal.layers = {1};
  EXPECT_THROW(layout.add_wire(std::move(diagonal)), InvalidArgument);

  Wire zero_len;
  zero_len.points = {{0, 0}, {0, 0}};
  zero_len.layers = {1};
  EXPECT_THROW(layout.add_wire(std::move(zero_len)), InvalidArgument);
}

TEST(Layout, RejectsDuplicateNodes) {
  Layout layout;
  layout.add_node(1, Rect::square(0, 0, 2));
  EXPECT_THROW(layout.add_node(1, Rect::square(5, 5, 2)), InvalidArgument);
}

TEST(TrackAssign, DisjointIntervalsShareTrack) {
  const std::vector<Interval> ivs{{0, 2}, {4, 6}, {8, 9}};
  const TrackAssignment t = assign_tracks_left_edge(ivs);
  EXPECT_EQ(t.num_tracks, 1u);
}

TEST(TrackAssign, TouchingIntervalsNeedDistinctTracks) {
  // Shared endpoints are shared grid points: not allowed in one track.
  const std::vector<Interval> ivs{{0, 4}, {4, 8}};
  const TrackAssignment t = assign_tracks_left_edge(ivs);
  EXPECT_EQ(t.num_tracks, 2u);
}

TEST(TrackAssign, MeetsCongestionLowerBound) {
  // Nested intervals: congestion = number of intervals.
  std::vector<Interval> ivs;
  for (i64 i = 0; i < 10; ++i) ivs.push_back({i, 19 - i});
  EXPECT_EQ(max_point_congestion(ivs), 10u);
  EXPECT_EQ(assign_tracks_left_edge(ivs).num_tracks, 10u);
}

TEST(TrackAssign, StaircasePacksTightly) {
  std::vector<Interval> ivs;
  for (i64 i = 0; i < 100; ++i) ivs.push_back({2 * i, 2 * i + 3});  // overlap depth 2
  const TrackAssignment t = assign_tracks_left_edge(ivs);
  EXPECT_EQ(t.num_tracks, 2u);
  // Verify assignment validity: same track => strictly disjoint.
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    for (std::size_t j = i + 1; j < ivs.size(); ++j) {
      if (t.track[i] == t.track[j]) {
        EXPECT_FALSE(ivs[i].overlaps(ivs[j]));
      }
    }
  }
}

TEST(TrackAssign, EmptyInput) {
  EXPECT_EQ(assign_tracks_left_edge(std::vector<Interval>{}).num_tracks, 0u);
  EXPECT_EQ(max_point_congestion(std::vector<Interval>{}), 0u);
}

}  // namespace
}  // namespace bfly
