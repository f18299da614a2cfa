// The hierarchical layout model (Section 5): chips on a board, boards in a
// cabinet, each level with its own pin / area / wire-width constraints.
//
// The planner reproduces the paper's worked example: a 9-dimensional
// butterfly on pin-limited chips (64 off-chip links, side 20, unit-width
// level-2 links) packs 8 consecutive swap-butterfly rows (80 nodes) per
// chip, uses 64 chips in an 8x8 grid, wires chip rows/columns with the
// collinear K_8 layout with quadruple links (64 tracks, 60 after moving
// neighbor links into the gap between their chips), and needs board area
// 409.6K with 2 wiring layers, 160K with 4, and 78.4K with 8.  The naive
// consecutive-row packing fits only 3 rows per chip and needs 171 chips.
//
// plan_hierarchical tries k_1 = n-1, ..., 1.  For each it first checks, by
// arithmetic, that a chip edge can host its channel terminals, and only
// then counts the off-chip links per chip with row_block_stats: in-level
// exchanges flip row bits below k_i <= k_1 and stay on their chip, so only
// the l-1 swap transitions are visited, and no Graph is built.
#pragma once

#include <vector>

#include "packaging/partition.hpp"
#include "topology/swap_butterfly.hpp"

namespace bfly {

struct ChipConstraints {
  u64 max_offchip_links = 64;
  i64 chip_side = 20;
  /// Split each chip's channel terminals across opposite edges (the paper's
  /// halving trick that lets a chip of side 16 terminate 28 row links).
  bool split_terminals = true;
};

struct HierarchicalPlan {
  int n = 0;                   ///< butterfly dimension
  std::vector<int> k;          ///< ISN parameters used for the partition
  int rows_log2 = 0;           ///< log2(rows per chip)
  u64 nodes_per_chip = 0;
  u64 num_chips = 0;
  u64 offchip_links_per_chip = 0;  ///< maximum over chips (counted exactly)
  u64 grid_rows = 0;               ///< chip grid (2^k3 x 2^k2)
  u64 grid_cols = 0;
  u64 logical_tracks_per_channel = 0;  ///< collinear K tracks, after the
                                       ///< neighbor-link optimization
  i64 chip_side = 0;
  u64 terminals_per_edge = 0;  ///< channel terminals a chip edge must host

  /// Board side and area when L wiring layers are available on the board.
  i64 board_side(int layers) const;
  i64 board_area(int layers) const;
  /// Longest board-level wire (a full row/column span).
  i64 max_board_wire(int layers) const;
};

/// Plans a two-level (chip + board) package of an n-dimensional butterfly:
/// picks the largest k_1 whose row-block partition respects the pin budget
/// and whose chip edge hosts its channel terminals, splitting n into
/// l = ceil(n/k_1) groups.
HierarchicalPlan plan_hierarchical(int n, const ChipConstraints& constraints);

/// Chips required by the naive consecutive-row packing under the same pin
/// budget, with off-chip links counted exactly on the graph.  (Exact
/// counting fits 4 aligned rows of B_9 into 64 pins -> 128 chips.)
u64 naive_chip_count(int n, u64 max_offchip_links);

/// The paper's coarser estimate for the same quantity: every node is charged
/// ~2 off-module links, so at most floor(pins / (2(n+1))) rows fit -- 3 rows
/// and ceil(512/3) = 171 chips for the Section 5 example.
u64 naive_chip_count_paper_estimate(int n, u64 max_offchip_links);

}  // namespace bfly
