// Partitioning and packaging of butterfly networks (Section 2.3).
//
// A partition assigns every network node to a module (chip / board / MCM).
// The figure of merit is the number of off-module links: the paper's scheme
// places 2^k1 consecutive rows of the swap-butterfly per module so that all
// straight and cross links stay inside modules and only (doubled) swap links
// leave, giving an average of 4(l-1)(2^k1 - 1) / ((n_l+1) 2^k1) off-module
// links per node -- a Theta(log N) improvement over the naive scheme that
// packs consecutive rows of a plain butterfly.
#pragma once

#include <span>
#include <vector>

#include "topology/butterfly.hpp"
#include "topology/graph.hpp"
#include "topology/swap_butterfly.hpp"

namespace bfly {

struct Partition {
  std::vector<u64> module_of;  ///< node id -> module id (dense)
  u64 num_modules = 0;
};

struct PartitionStats {
  u64 num_modules = 0;
  u64 max_nodes_per_module = 0;
  u64 min_nodes_per_module = 0;
  u64 total_offmodule_links = 0;      ///< links with endpoints in two modules
  u64 max_offmodule_links_per_module = 0;
  double avg_offmodule_links_per_node = 0.0;  ///< 2 * off-links / nodes
};

/// Counts off-module links of `partition` on `graph` (each off-module link
/// contributes one pin on each side, hence the factor 2 in the per-node
/// average -- this matches the paper's "4(l-1) swap links per row" counting,
/// where each link is counted in both endpoint rows).
PartitionStats evaluate_partition(const Graph& graph, const Partition& partition);

/// Paper scheme 1: every `2^rows_log2` consecutive rows of the swap-butterfly
/// (all stages) form a module.  rows_log2 defaults to k_1.
Partition row_block_partition(const SwapButterfly& sb, int rows_log2);

/// The statistics evaluate_partition(sb.graph(), row_block_partition(sb,
/// rows_log2)) reports, counted from the stage transitions without building
/// the graph.  A link leaves its row block only if its transition changes a
/// row bit at or above rows_log2: an in-level exchange flips bit s - n_{i-1},
/// so with rows_log2 >= k_i it stays inside, and at rows_log2 = k_1 only the
/// l - 1 swap transitions are visited.
PartitionStats row_block_stats(const SwapButterfly& sb, int rows_log2);

/// Paper scheme 2 (Theorem 2.1): one nucleus butterfly per module.  Level-i
/// modules hold stages [n_{i-1}+1, n_i] (level 1: [0, n_1]) of 2^{k_i} rows
/// sharing all row bits above bit k_i.
Partition nucleus_partition(const SwapButterfly& sb);

/// Baseline: q consecutive rows of a *plain* butterfly per module.
Partition naive_row_partition(const Butterfly& bf, u64 rows_per_module);

/// The closed form of Section 2.3 for the row-block scheme.
double predicted_offmodule_links_per_node(int l, int k1, int n);

/// Theorem 2.1's bounds for the nucleus scheme on ISN(l, B_k1).
u64 theorem21_max_nodes(int k1);      // 2^k1 (k1 + 1) nodes (B_k1 including both end stages)
u64 theorem21_max_offlinks(int k1);   // 2^{k1+2}

/// Largest number of consecutive plain-butterfly rows per module such that
/// every module has at most `max_pins` off-module links (the Section 5
/// baseline: 3 rows for the 9-dimensional butterfly with 64 pins).
u64 max_naive_rows_within_pins(const Butterfly& bf, u64 max_pins);

// ---------------------------------------------------------------------------
// Multi-level packaging (Sec. 2.3, final paragraph): "the proposed
// partitioning and packaging methods can be extended to the case where there
// are more than two levels in the packaging hierarchy."
//
// Level j of the hierarchy groups 2^{n_j} consecutive rows (chips at j = 1,
// boards at j = 2, cabinets at j = 3, ...).  A level-i swap link stays inside
// a level-j module iff i <= j, so only higher-level swap links cross level-j
// boundaries and the per-node average at level j is
// (4/(n+1)) sum_{i > j} (1 - 2^{-k_i}).
// ---------------------------------------------------------------------------

struct PackagingLevel {
  int level = 0;            ///< j = 1 .. l-1
  u64 rows_per_module = 0;  ///< 2^{n_j}
  PartitionStats stats;
  double predicted_avg = 0.0;  ///< the closed form above
};

/// Evaluates every level of the packaging hierarchy induced by the ISN's
/// group structure.  Returns l-1 levels (the level-l "module" is the whole
/// machine).
std::vector<PackagingLevel> multilevel_packaging(const SwapButterfly& sb);

}  // namespace bfly
