// Optimal butterfly layouts under the Thompson and multilayer grid models
// (Sections 3 and 4): the recursive grid layout scheme.
//
// The n-dimensional butterfly is realized as the swap-butterfly of
// ISN(k1, k2, k3) (k1 + k2 + k3 = n).  Every 2^k1 consecutive rows form a
// *block*; blocks are arranged as a 2^k3 x 2^k2 grid.  sigma_2 links connect
// blocks within a grid row and are wired in the horizontal channel above the
// row using the collinear layout of K_{2^k2} with every wire replicated
// 2^(2+k1-k2) times; sigma_3 links use the vertical channel right of each
// grid column (K_{2^k3}, replication 2^(2+k1-k3)).  Exchange links are routed
// inside blocks by a left-edge channel router.  With L wiring layers the
// channel tracks are folded into groups wired on layer pairs, giving the
// Theorem 4.1 area/wire-length/volume.
//
// The same construction both *materializes* into explicit geometry (checked
// by the Thompson / multilayer legality checkers) and *streams* its wires to
// compute exact metrics for sizes too large to hold in memory.  Both paths,
// and link_wire_lengths, run the one wire enumerator for_each_wire, which
// hands each wire to a non-owning callback as an InlineWire and allocates
// nothing per wire; so the streamed metrics are the metrics of the real
// layout, and only materialize() allocates.
#pragma once

#include <vector>

#include "layout/collinear.hpp"
#include "layout/layout.hpp"
#include "layout/track_assign.hpp"
#include "topology/swap_butterfly.hpp"

namespace bfly {

struct ButterflyLayoutOptions {
  /// Number of wiring layers L >= 2 (Thompson model corresponds to L = 2).
  int layers = 2;
  /// Side of each network node square; >= 4 (degree-4 nodes).  The
  /// scalability claim (Sec. 3/4): any side o(sqrt(N)/(L log N)) leaves the
  /// leading constants unchanged.
  i64 node_side = 4;
  /// Fold the *intra-block* channels (exchange channels, swap channels, and
  /// the level-3 service region) across the layer groups as well.  The
  /// paper's construction leaves block internals on two layers (they are an
  /// o() term); folding them makes the measured area track Theorem 4.1's
  /// 1/L^2 scaling at practical sizes instead of only asymptotically.
  /// Cross-block wires keep all segments on their own channel group's layer
  /// pair, so every via still spans exactly two adjacent layers.
  bool fold_block_channels = false;
};

/// Per-direction channel track folding (Sec. 4.2).
struct ChannelFold {
  u64 logical_tracks = 0;  ///< unfolded track count (Thompson)
  u64 groups = 1;          ///< number of layer-pair groups
  i64 positions = 0;       ///< physical track positions = ceil(logical/groups)
};

class ButterflyLayoutPlan {
 public:
  /// k must have exactly 3 levels; see choose_parameters for the paper's
  /// general-dimension rule.
  ButterflyLayoutPlan(std::vector<int> k, ButterflyLayoutOptions options = {});

  /// The Section 3.3 parameter rule: split n into (k1, k2, k3) with
  /// k1 >= k2 >= k3 and k1 - k3 <= 1.  Requires n >= 3.
  static std::vector<int> choose_parameters(int n);

  const SwapButterfly& network() const { return sb_; }
  const ButterflyLayoutOptions& options() const { return options_; }

  // Derived dimensions (exact, shared with the geometry).
  i64 block_width() const { return block_width_; }
  i64 block_height() const { return block_height_; }
  i64 cell_width() const { return cell_width_; }
  i64 cell_height() const { return cell_height_; }
  u64 grid_cols() const { return pow2(k_[1]); }  ///< blocks per grid row
  u64 grid_rows() const { return pow2(k_[2]); }
  const ChannelFold& row_fold() const { return row_fold_; }
  const ChannelFold& col_fold() const { return col_fold_; }
  i64 width() const { return static_cast<i64>(grid_cols()) * cell_width_; }
  i64 height() const { return static_cast<i64>(grid_rows()) * cell_height_; }

  /// Streams every node rectangle (id = SwapButterfly::node_id).
  void for_each_node(NodeSink fn) const;
  /// Streams every wire of the layout; each InlineWire is valid only during
  /// its call.
  void for_each_wire(WireSink fn) const;

  /// Full geometry, feasible for moderate n (memory ~ num_links).
  Layout materialize() const;
  /// Exact metrics via streaming (no geometry retained).
  LayoutMetrics metrics() const;

 private:
  // --- coordinate helpers ---------------------------------------------------
  u64 block_of_row(u64 row) const { return row >> k_[0]; }
  u64 local_row(u64 row) const { return row & (pow2(k_[0]) - 1); }
  u64 grid_row_of_block(u64 b) const { return b >> k_[1]; }
  u64 grid_col_of_block(u64 b) const { return b & (pow2(k_[1]) - 1); }
  i64 block_x0(u64 b) const { return static_cast<i64>(grid_col_of_block(b)) * cell_width_; }
  i64 block_y0(u64 b) const { return static_cast<i64>(grid_row_of_block(b)) * cell_height_; }
  /// y of terminal `offset` (0..3) on node (row, stage).
  i64 terminal_y(u64 row, int offset) const;
  /// x of the left/right edge terminals of stage column s.
  i64 column_x0(int s) const;
  /// x of intra-channel track t in the channel between stages s and s+1
  /// (block-local).
  i64 channel_track_x(int s, i64 t) const;
  /// Absolute x of row-channel / column-channel physical positions.
  i64 row_track_y(u64 grid_row, u64 logical_track, int* h_layer, int* v_layer) const;
  i64 col_track_x(u64 grid_col, u64 logical_track, int* h_layer, int* v_layer) const;

  void emit_exchange_wire(u64 u, int s, int kind, WireSink fn) const;
  void emit_level2_wire(u64 u, int kind, WireSink fn) const;
  void emit_level3_wire(u64 u, int kind, WireSink fn) const;

  /// Replica index of the boundary link leaving (u, kind) among all links
  /// between its block pair, plus the collinear track lookup.
  u64 boundary_replica(int level, u64 u, int kind) const;

  /// Slot (vertical track index for level-2, service/track index for
  /// level-3) of a link endpoint within its block's swap channel.  Slots are
  /// ordered primarily by the *peer block position*, which is what makes
  /// spans of links sharing a collinear track monotone and disjoint.
  i64 swap_channel_slot(int level, bool out, u64 row, int kind) const;

  /// With fold_block_channels: the physical swap-channel track of an
  /// endpoint.  Cross-block endpoints of the same channel group get dense
  /// peer-monotone ranks and overlay the groups on a shared x-range;
  /// in-block links live in a dedicated trailing range.  Without folding,
  /// returns the raw slot.
  i64 folded_swap_track(int level, bool out, u64 row, int kind) const;
  /// Width of the (possibly folded) level-2/3 swap channel.
  i64 swap_channel_width(int level) const;
  void build_fold_tables();

  /// Layer pair for intra-block wiring of internal fold group g.
  int internal_group_count() const;

  std::vector<int> k_;
  ButterflyLayoutOptions options_;
  SwapButterfly sb_;
  int n_;
  i64 node_side_;

  // Intra-block channel structure.
  std::vector<i64> chan_width_;                 // per transition s
  std::vector<std::vector<u64>> exchange_track_;  // per transition: net -> track
  std::vector<i64> col_x0_;                     // per stage column (block-local)
  i64 service_height_ = 0;
  i64 block_width_ = 0;
  i64 block_height_ = 0;

  // Channel folding.
  ChannelFold row_fold_;
  ChannelFold col_fold_;
  i64 cell_width_ = 0;
  i64 cell_height_ = 0;

  // Collinear track tables for inter-block channels.
  std::vector<u64> row_type_base_;  // per type d, base logical track
  std::vector<u64> col_type_base_;
  u64 row_mult_ = 0;
  u64 col_mult_ = 0;

  // Block-channel folding (fold_block_channels).  For level 2 the tables are
  // per grid-column position; for level 3 per grid-row position.  Each maps
  // a swap-channel slot to its folded physical track.
  std::vector<std::vector<i64>> l2_fold_;  // [column position][slot] -> track
  std::vector<std::vector<i64>> l3_fold_;
  i64 l2_width_ = 0;  // folded channel width (max over positions)
  i64 l3_width_ = 0;
};

/// Physical wire length of every butterfly link of the laid-out network,
/// indexed by the routing layer's dense link id
/// (stage * rows + row) * 2 + cross, where `row` is the *butterfly* row of
/// the link's stage-s endpoint (the plan's swap-butterfly rows are mapped
/// through rho).  This is the bridge between the simulators' per-hop traces
/// and the layout's geometry: feeding the table to obs::flight_distance
/// prices a recorded packet journey in routing tracks actually traveled.
/// Streams the wires (no geometry retained); O(num_links) memory.
std::vector<i64> link_wire_lengths(const ButterflyLayoutPlan& plan);

}  // namespace bfly
