#include "layout/product_layout.hpp"

#include <algorithm>

#include "layout/track_assign.hpp"

namespace bfly {

ProductLayoutPlan::FactorWiring ProductLayoutPlan::wire_factor(const Graph& g, i64 pitch) {
  FactorWiring w;
  w.incident.assign(g.num_nodes(), {});
  const auto edges = g.edges();
  w.slot_of_edge_lo.assign(edges.size(), 0);
  w.slot_of_edge_hi.assign(edges.size(), 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& [a, b] = edges[e];
    BFLY_REQUIRE(a != b, "product layout requires loop-free factors");
    w.slot_of_edge_lo[e] = w.incident[a].size();
    w.incident[a].emplace_back(e, w.slot_of_edge_lo[e]);
    w.slot_of_edge_hi[e] = w.incident[b].size();
    w.incident[b].emplace_back(e, w.slot_of_edge_hi[e]);
  }
  for (const auto& inc : w.incident) {
    w.max_degree = std::max(w.max_degree, static_cast<u64>(inc.size()));
  }
  std::vector<Interval> intervals;
  intervals.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& [a, b] = edges[e];
    intervals.push_back(make_interval(
        static_cast<i64>(a) * pitch + static_cast<i64>(w.slot_of_edge_lo[e]),
        static_cast<i64>(b) * pitch + static_cast<i64>(w.slot_of_edge_hi[e])));
  }
  const TrackAssignment assignment = assign_tracks_left_edge(intervals);
  w.edge_track = assignment.track;
  w.tracks = assignment.num_tracks;
  return w;
}

ProductLayoutPlan::ProductLayoutPlan(Graph rows_graph, Graph cols_graph,
                                     ProductLayoutOptions options)
    : rows_graph_(std::move(rows_graph)), cols_graph_(std::move(cols_graph)), options_(options) {
  BFLY_REQUIRE(rows_graph_.num_nodes() >= 1 && cols_graph_.num_nodes() >= 1,
               "factors must be non-empty");
  BFLY_REQUIRE(options_.layers >= 2, "at least two wiring layers are required");

  // Max degree decides the node side (one terminal slot per incident edge on
  // the top edge for column-factor links and on the right edge for
  // row-factor links, plus a corner spare).
  u64 max_deg = 0;
  for (u64 v = 0; v < rows_graph_.num_nodes(); ++v) max_deg = std::max(max_deg, rows_graph_.degree(v));
  for (u64 v = 0; v < cols_graph_.num_nodes(); ++v) max_deg = std::max(max_deg, cols_graph_.degree(v));
  const i64 min_side = std::max<i64>(4, static_cast<i64>(max_deg) + 1);
  node_side_ = options_.node_side == 0 ? min_side : options_.node_side;
  BFLY_REQUIRE(node_side_ >= min_side, "node side must host one terminal per incident link");

  row_wiring_ = wire_factor(cols_graph_, node_side_);
  col_wiring_ = wire_factor(rows_graph_, node_side_);
  row_tracks_ = row_wiring_.tracks;
  col_tracks_ = col_wiring_.tracks;

  const int L = options_.layers;
  row_groups_ = L % 2 == 0 ? static_cast<u64>(L) / 2 : (static_cast<u64>(L) + 1) / 2;
  col_groups_ =
      L % 2 == 0 ? static_cast<u64>(L) / 2 : std::max<u64>(1, (static_cast<u64>(L) - 1) / 2);
  row_positions_ =
      row_tracks_ == 0 ? 0 : ceil_div(static_cast<i64>(row_tracks_), static_cast<i64>(row_groups_));
  col_positions_ =
      col_tracks_ == 0 ? 0 : ceil_div(static_cast<i64>(col_tracks_), static_cast<i64>(col_groups_));

  cell_width_ = node_side_ + col_positions_;
  cell_height_ = node_side_ + row_positions_;
}

i64 ProductLayoutPlan::fold(u64 track, bool horizontal, int* v_layer, int* h_layer) const {
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

void ProductLayoutPlan::for_each_node(NodeSink fn) const {
  for (u64 i = 0; i < grid_rows(); ++i) {
    for (u64 j = 0; j < grid_cols(); ++j) {
      fn(node_id(i, j), Rect::square(static_cast<i64>(j) * cell_width_,
                                     static_cast<i64>(i) * cell_height_, node_side_));
    }
  }
}

void ProductLayoutPlan::for_each_wire(WireSink fn) const {
  const auto col_edges = cols_graph_.edges();
  const auto row_edges = rows_graph_.edges();
  // Column-factor links, one copy per grid row, in the row channels.
  for (u64 i = 0; i < grid_rows(); ++i) {
    const i64 y0 = static_cast<i64>(i) * cell_height_;
    for (std::size_t e = 0; e < col_edges.size(); ++e) {
      const auto& [a, b] = col_edges[e];
      int vl = 0;
      int hl = 0;
      const i64 pos = fold(row_wiring_.edge_track[e], /*horizontal=*/true, &vl, &hl);
      const i64 track_y = y0 + node_side_ + pos;
      const i64 ax = static_cast<i64>(a) * cell_width_ +
                     static_cast<i64>(row_wiring_.slot_of_edge_lo[e]);
      const i64 bx = static_cast<i64>(b) * cell_width_ +
                     static_cast<i64>(row_wiring_.slot_of_edge_hi[e]);
      fn(WireBuilder(Point{ax, y0 + node_side_ - 1})
             .from(node_id(i, a))
             .to_y(track_y, vl)
             .to_x(bx, hl)
             .to_y(y0 + node_side_ - 1, vl)
             .to(node_id(i, b))
             .wire());
    }
  }
  // Row-factor links, one copy per grid column, in the column channels.
  for (u64 j = 0; j < grid_cols(); ++j) {
    const i64 x0 = static_cast<i64>(j) * cell_width_;
    for (std::size_t e = 0; e < row_edges.size(); ++e) {
      const auto& [a, b] = row_edges[e];
      int vl = 0;
      int hl = 0;
      const i64 pos = fold(col_wiring_.edge_track[e], /*horizontal=*/false, &vl, &hl);
      const i64 track_x = x0 + node_side_ + pos;
      const i64 ay = static_cast<i64>(a) * cell_height_ +
                     static_cast<i64>(col_wiring_.slot_of_edge_lo[e]);
      const i64 by = static_cast<i64>(b) * cell_height_ +
                     static_cast<i64>(col_wiring_.slot_of_edge_hi[e]);
      fn(WireBuilder(Point{x0 + node_side_ - 1, ay})
             .from(node_id(a, j))
             .to_x(track_x, hl)
             .to_y(by, vl)
             .to_x(x0 + node_side_ - 1, hl)
             .to(node_id(b, j))
             .wire());
    }
  }
}

Layout ProductLayoutPlan::materialize() const {
  Layout layout;
  layout.reserve(num_nodes(), grid_rows() * cols_graph_.num_edges() +
                                  grid_cols() * rows_graph_.num_edges());
  for_each_node([&](u64 id, Rect r) { layout.add_node(id, r); });
  for_each_wire([&](const InlineWire& w) { layout.add_wire(w.to_wire()); });
  return layout;
}

LayoutMetrics ProductLayoutPlan::metrics() const {
  MetricsAccumulator acc;
  for_each_node([&](u64, Rect r) { acc.add_node(r); });
  for_each_wire([&](const InlineWire& w) { acc.add_wire(w); });
  return acc.finish();
}

Graph ProductLayoutPlan::product_graph() const {
  Graph g(num_nodes());
  for (u64 i = 0; i < grid_rows(); ++i) {
    for (const auto& [a, b] : cols_graph_.edges()) g.add_edge(node_id(i, a), node_id(i, b));
  }
  for (u64 j = 0; j < grid_cols(); ++j) {
    for (const auto& [a, b] : rows_graph_.edges()) g.add_edge(node_id(a, j), node_id(b, j));
  }
  return g;
}

}  // namespace bfly
