// Grid layouts of Cartesian product networks G_rows x G_cols -- the general
// machinery behind the conclusion's "hypercubes and k-ary n-cubes" (and the
// homogeneous product networks of Fernandez & Efe [12], which the paper
// cites for related layout work).
//
// Nodes (i, j) sit on a |G_rows| x |G_cols| grid.  Every grid row is an
// identical copy of G_cols, wired in the horizontal channel above it with
// left-edge-assigned tracks; every grid column is a copy of G_rows in the
// vertical channel to its right.  Channel tracks fold over L layer groups
// exactly as in the butterfly layout.  Tori, meshes, Hamming graphs, and
// hypercubes (Q_n = Q_a x Q_b) all drop out of this one generator.
#pragma once

#include "layout/layout.hpp"
#include "topology/graph.hpp"

namespace bfly {

struct ProductLayoutOptions {
  int layers = 2;
  i64 node_side = 0;  ///< 0 = auto (max degree + 1, at least 4)
};

class ProductLayoutPlan {
 public:
  /// Both factor graphs are copied; they must be loop-free.
  ProductLayoutPlan(Graph rows_graph, Graph cols_graph, ProductLayoutOptions options = {});

  u64 grid_rows() const { return rows_graph_.num_nodes(); }
  u64 grid_cols() const { return cols_graph_.num_nodes(); }
  u64 num_nodes() const { return grid_rows() * grid_cols(); }
  i64 node_side() const { return node_side_; }
  u64 row_channel_tracks() const { return row_tracks_; }
  u64 col_channel_tracks() const { return col_tracks_; }

  u64 node_id(u64 i, u64 j) const { return i * grid_cols() + j; }

  /// Stream the nodes and the wires, as ButterflyLayoutPlan does.
  void for_each_node(NodeSink fn) const;
  void for_each_wire(WireSink fn) const;
  Layout materialize() const;
  LayoutMetrics metrics() const;

  /// The product graph itself (for structural cross-checks).
  Graph product_graph() const;

 private:
  struct FactorWiring {
    // Terminal slot of each (node, incident edge) pair and track per edge.
    std::vector<std::vector<std::pair<u64, u64>>> incident;  // node -> (edge, slot)
    std::vector<u64> edge_track;
    std::vector<u64> slot_of_edge_lo;  // per edge: slot at the lower endpoint
    std::vector<u64> slot_of_edge_hi;
    u64 tracks = 0;
    u64 max_degree = 0;
  };
  static FactorWiring wire_factor(const Graph& g, i64 pitch);

  i64 fold(u64 track, bool horizontal, int* v_layer, int* h_layer) const;

  Graph rows_graph_;
  Graph cols_graph_;
  ProductLayoutOptions options_;
  i64 node_side_ = 0;
  FactorWiring row_wiring_;  // wiring of G_cols inside each grid row
  FactorWiring col_wiring_;
  u64 row_tracks_ = 0;
  u64 col_tracks_ = 0;
  u64 row_groups_ = 1;
  u64 col_groups_ = 1;
  i64 row_positions_ = 0;
  i64 col_positions_ = 0;
  i64 cell_width_ = 0;
  i64 cell_height_ = 0;
};

}  // namespace bfly
