#include "layout/hypercube_layout.hpp"

#include <algorithm>
#include <cmath>

#include "layout/track_assign.hpp"

namespace bfly {

namespace {

/// Left-edge track assignment for the dimension-d links inside one grid line
/// of `count` nodes with terminal pitch `pitch` (the overlap structure is
/// pitch-invariant for any pitch >= the number of dims, so the caller can
/// assign tracks before the final cell size is known).
/// Returns tracks indexed by (d * count + lower endpoint).
std::pair<std::vector<u64>, u64> assign_line_tracks(int dims, u64 count, i64 pitch) {
  std::vector<Interval> intervals;
  std::vector<std::pair<int, u64>> net_of;  // (d, lower node)
  for (int d = 0; d < dims; ++d) {
    for (u64 c = 0; c < count; ++c) {
      if ((c >> d) & 1) continue;  // lower endpoint only
      const u64 c2 = c | pow2(d);
      intervals.push_back(make_interval(static_cast<i64>(c) * pitch + d,
                                        static_cast<i64>(c2) * pitch + d));
      net_of.emplace_back(d, c);
    }
  }
  const TrackAssignment assignment = assign_tracks_left_edge(intervals);
  std::vector<u64> table(static_cast<std::size_t>(dims) * count, ~u64{0});
  for (std::size_t i = 0; i < net_of.size(); ++i) {
    const auto& [d, c] = net_of[i];
    table[static_cast<std::size_t>(d) * count + c] = assignment.track[i];
  }
  return {std::move(table), assignment.num_tracks};
}

}  // namespace

HypercubeLayoutPlan::HypercubeLayoutPlan(int n, HypercubeLayoutOptions options)
    : n_(n), mr_(n / 2), mc_(n - n / 2), options_(options) {
  BFLY_REQUIRE(n >= 2 && n <= 26, "hypercube layout supports n in [2, 26]");
  BFLY_REQUIRE(options_.layers >= 2, "at least two wiring layers are required");
  // One terminal per dimension on the top (row dims) and right (column dims)
  // edges, plus one spare unit so the two edges never meet at the corner.
  const i64 min_side = std::max<i64>(4, std::max(mr_, mc_) + 1);
  node_side_ = options_.node_side == 0 ? min_side : options_.node_side;
  BFLY_REQUIRE(node_side_ >= min_side, "node side must host one terminal per dimension");

  auto [row_table, row_tracks] = assign_line_tracks(mc_, grid_cols(), node_side_);
  row_track_of_ = std::move(row_table);
  row_tracks_ = row_tracks;
  auto [col_table, col_tracks] = assign_line_tracks(mr_, grid_rows(), node_side_);
  col_track_of_ = std::move(col_table);
  col_tracks_ = col_tracks;

  const int L = options_.layers;
  row_groups_ = L % 2 == 0 ? static_cast<u64>(L) / 2 : (static_cast<u64>(L) + 1) / 2;
  col_groups_ = L % 2 == 0 ? static_cast<u64>(L) / 2 : std::max<u64>(1, (static_cast<u64>(L) - 1) / 2);
  row_positions_ = ceil_div(static_cast<i64>(row_tracks_), static_cast<i64>(row_groups_));
  col_positions_ = ceil_div(static_cast<i64>(col_tracks_), static_cast<i64>(col_groups_));

  cell_width_ = node_side_ + col_positions_;
  cell_height_ = node_side_ + row_positions_;
}

i64 HypercubeLayoutPlan::fold(u64 track, bool horizontal, int* v_layer, int* h_layer) const {
  const int L = options_.layers;
  const u64 groups = horizontal ? row_groups_ : col_groups_;
  const u64 g = track % groups;
  const i64 position = static_cast<i64>(track / groups);
  if (L % 2 == 0) {
    *v_layer = static_cast<int>(2 * g + 1);
    *h_layer = static_cast<int>(2 * g + 2);
  } else if (horizontal) {
    *h_layer = static_cast<int>(2 * g + 1);
    *v_layer = std::min(static_cast<int>(2 * g + 2), L - 1);
  } else {
    *v_layer = static_cast<int>(2 * g + 2);
    *h_layer = std::min(static_cast<int>(2 * g + 3), L);
  }
  return position;
}

void HypercubeLayoutPlan::for_each_node(NodeSink fn) const {
  const u64 nodes = pow2(n_);
  for (u64 v = 0; v < nodes; ++v) {
    fn(v, Rect::square(node_x0(v), node_y0(v), node_side_));
  }
}

void HypercubeLayoutPlan::for_each_wire(WireSink fn) const {
  const u64 nodes = pow2(n_);
  for (u64 v = 0; v < nodes; ++v) {
    // Row-channel dims: lower endpoint emits.
    for (int d = 0; d < mc_; ++d) {
      if ((v >> d) & 1) continue;
      const u64 w = v | pow2(d);
      const u64 c = grid_col_of(v);
      const u64 track = row_track_of_[static_cast<std::size_t>(d) * grid_cols() + c];
      int vl = 0;
      int hl = 0;
      const i64 pos = fold(track, /*horizontal=*/true, &vl, &hl);
      const i64 track_y = node_y0(v) + node_side_ + pos;
      fn(WireBuilder(Point{node_x0(v) + d, node_y0(v) + node_side_ - 1})
             .from(v)
             .to_y(track_y, vl)
             .to_x(node_x0(w) + d, hl)
             .to_y(node_y0(w) + node_side_ - 1, vl)
             .to(w)
             .wire());
    }
    // Column-channel dims.
    for (int d = mc_; d < n_; ++d) {
      if ((v >> d) & 1) continue;
      const u64 w = v | pow2(d);
      const int local = d - mc_;
      const u64 r = grid_row_of(v);
      const u64 track = col_track_of_[static_cast<std::size_t>(local) * grid_rows() + r];
      int vl = 0;
      int hl = 0;
      const i64 pos = fold(track, /*horizontal=*/false, &vl, &hl);
      const i64 track_x =
          static_cast<i64>(grid_col_of(v)) * cell_width_ + node_side_ + pos;
      fn(WireBuilder(Point{node_x0(v) + node_side_ - 1, node_y0(v) + local})
             .from(v)
             .to_x(track_x, hl)
             .to_y(node_y0(w) + local, vl)
             .to_x(node_x0(w) + node_side_ - 1, hl)
             .to(w)
             .wire());
    }
  }
}

Layout HypercubeLayoutPlan::materialize() const {
  Layout layout;
  layout.reserve(pow2(n_), static_cast<u64>(n_) * pow2(n_ - 1));
  for_each_node([&](u64 id, Rect r) { layout.add_node(id, r); });
  for_each_wire([&](const InlineWire& w) { layout.add_wire(w.to_wire()); });
  return layout;
}

LayoutMetrics HypercubeLayoutPlan::metrics() const {
  MetricsAccumulator acc;
  for_each_node([&](u64, Rect r) { acc.add_node(r); });
  for_each_wire([&](const InlineWire& w) { acc.add_wire(w); });
  return acc.finish();
}

double HypercubeLayoutPlan::area_lower_bound(int n) {
  const double bisection = std::pow(2.0, n - 1);
  return bisection * bisection;
}

}  // namespace bfly
