// Grid layouts of hypercubes -- the paper's conclusion notes that the same
// collinear-layout machinery yields efficient layouts "for butterfly
// networks and many other networks, such as hypercubes and k-ary n-cubes"
// (cf. the authors' FRONTIERS'99 hypercube layouts [26]).
//
// Q_n with n = m_r + m_c is placed as a 2^{m_r} x 2^{m_c} grid of nodes
// (node v at grid row v >> m_c, column v & (2^{m_c}-1)).  Dimension-d links
// with d < m_c stay inside a grid row and are wired in the horizontal
// channel above it; higher dimensions stay inside a grid column and use the
// vertical channel to its right.  Channel tracks come from the left-edge
// assignment over the link intervals (every row/column is an identical copy
// of the collinear layout of Q_{m_c} / Q_{m_r}).  With L layers the channel
// tracks fold into layer groups exactly as in the butterfly layout.
//
// The Thompson lower bound for Q_n is bisection^2 = (N/2)^2; the bench
// reports measured area against it.
#pragma once

#include "layout/layout.hpp"
#include "topology/hypercube.hpp"

namespace bfly {

struct HypercubeLayoutOptions {
  int layers = 2;
  /// Node side; at least max(4, n) so each dimension gets a terminal.
  i64 node_side = 0;  ///< 0 = auto
};

class HypercubeLayoutPlan {
 public:
  explicit HypercubeLayoutPlan(int n, HypercubeLayoutOptions options = {});

  int dimension() const { return n_; }
  int row_dims() const { return mc_; }  ///< dims wired in row channels
  int col_dims() const { return mr_; }
  u64 grid_rows() const { return pow2(mr_); }
  u64 grid_cols() const { return pow2(mc_); }
  i64 node_side() const { return node_side_; }
  u64 row_channel_tracks() const { return row_tracks_; }
  u64 col_channel_tracks() const { return col_tracks_; }
  i64 width() const { return static_cast<i64>(grid_cols()) * cell_width_; }
  i64 height() const { return static_cast<i64>(grid_rows()) * cell_height_; }

  /// Stream the nodes and the wires, as ButterflyLayoutPlan does.
  void for_each_node(NodeSink fn) const;
  void for_each_wire(WireSink fn) const;
  Layout materialize() const;
  LayoutMetrics metrics() const;

  /// Thompson-model lower bound: (bisection width)^2 = (N/2)^2.
  static double area_lower_bound(int n);

 private:
  u64 grid_row_of(u64 v) const { return v >> mc_; }
  u64 grid_col_of(u64 v) const { return v & (pow2(mc_) - 1); }
  i64 node_x0(u64 v) const { return static_cast<i64>(grid_col_of(v)) * cell_width_; }
  i64 node_y0(u64 v) const { return static_cast<i64>(grid_row_of(v)) * cell_height_; }
  /// (group, position, layers) of a folded channel track.
  i64 fold(u64 track, bool horizontal, int* v_layer, int* h_layer) const;

  int n_;
  int mr_;
  int mc_;
  HypercubeLayoutOptions options_;
  i64 node_side_ = 0;
  u64 row_tracks_ = 0;  // unfolded
  u64 col_tracks_ = 0;
  i64 row_positions_ = 0;  // folded
  i64 col_positions_ = 0;
  u64 row_groups_ = 1;
  u64 col_groups_ = 1;
  i64 cell_width_ = 0;
  i64 cell_height_ = 0;
  std::vector<u64> row_track_of_;  // per (node-in-row, dim) net -> track
  std::vector<u64> col_track_of_;
};

}  // namespace bfly
