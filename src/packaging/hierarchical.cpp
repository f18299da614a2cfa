#include "packaging/hierarchical.hpp"

#include <algorithm>

#include "layout/collinear.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bfly {

namespace {

/// Splits n into l = ceil(n/k1) groups: k1 first, then k1-sized groups, with
/// whatever remains as the last group.  Returns empty if infeasible.
std::vector<int> split_with_nucleus(int n, int k1) {
  std::vector<int> k{k1};
  int remaining = n - k1;
  while (remaining > 0) {
    const int next = std::min(k1, remaining);
    k.push_back(next);
    remaining -= next;
  }
  // Feasibility (k_i <= n_{i-1}) holds automatically: every k_i <= k_1.
  return k;
}

u64 fold_positions(u64 logical, int layers, bool horizontal) {
  const u64 groups = layers % 2 == 0 ? static_cast<u64>(layers) / 2
                     : horizontal    ? (static_cast<u64>(layers) + 1) / 2
                                     : (static_cast<u64>(layers) - 1) / 2;
  return static_cast<u64>(ceil_div(static_cast<i64>(logical), static_cast<i64>(groups)));
}

}  // namespace

i64 HierarchicalPlan::board_side(int layers) const {
  // Square boards arise for k2 == k3 (e.g. the paper's 8x8 example); for the
  // general case this returns the larger of the two dimensions.
  BFLY_REQUIRE(layers >= 2, "at least two board wiring layers required");
  const i64 row_positions =
      static_cast<i64>(fold_positions(logical_tracks_per_channel, layers, /*horizontal=*/true));
  const i64 col_positions =
      grid_rows <= 1
          ? 0
          : static_cast<i64>(fold_positions(logical_tracks_per_channel, layers, false));
  const i64 width = static_cast<i64>(grid_cols) * (chip_side + col_positions);
  const i64 height = static_cast<i64>(grid_rows) * (chip_side + row_positions);
  return std::max(width, height);
}

i64 HierarchicalPlan::board_area(int layers) const {
  BFLY_REQUIRE(layers >= 2, "at least two board wiring layers required");
  const i64 row_positions =
      static_cast<i64>(fold_positions(logical_tracks_per_channel, layers, /*horizontal=*/true));
  const i64 col_positions =
      grid_rows <= 1
          ? 0
          : static_cast<i64>(fold_positions(logical_tracks_per_channel, layers, false));
  const i64 width = static_cast<i64>(grid_cols) * (chip_side + col_positions);
  const i64 height = static_cast<i64>(grid_rows) * (chip_side + row_positions);
  return width * height;
}

i64 HierarchicalPlan::max_board_wire(int layers) const {
  // The longest board wire spans a full chip row (or column).
  return board_side(layers);
}

HierarchicalPlan plan_hierarchical(int n, const ChipConstraints& constraints) {
  BFLY_REQUIRE(n >= 2, "hierarchical planning needs dimension >= 2");
  BFLY_TRACE_SCOPE("packaging.plan_hierarchical");
  for (int k1 = n - 1; k1 >= 1; --k1) {
    // k1 < n, so there are at least two levels and a chip grid row.
    const std::vector<int> k = split_with_nucleus(n, k1);
    const int k2 = k[1];
    const int k3 = k.size() >= 3 ? k[2] : 0;
    // The chip edge must host the channel terminals of the collinear
    // K_{2^k2} channel with replication 2^{2+k1-k2}; otherwise a smaller
    // nucleus (fewer, thinner channels) is needed.  This test is arithmetic,
    // so it runs before any link is counted.
    const u64 mult = pow2(2 + k1 - k2);
    const u64 incident = mult * (pow2(k2) - 1);
    const u64 per_edge = constraints.split_terminals
                             ? static_cast<u64>(ceil_div(static_cast<i64>(incident), 2))
                             : incident;
    if (per_edge > static_cast<u64>(constraints.chip_side)) continue;
    const PartitionStats stats = row_block_stats(SwapButterfly(k), k1);
    if (stats.max_offmodule_links_per_module > constraints.max_offchip_links) continue;

    HierarchicalPlan plan;
    plan.n = n;
    plan.k = k;
    plan.rows_log2 = k1;
    plan.nodes_per_chip = pow2(k1) * static_cast<u64>(n + 1);
    plan.num_chips = stats.num_modules;
    plan.offchip_links_per_chip = stats.max_offmodule_links_per_module;
    plan.grid_cols = pow2(k2);
    plan.grid_rows = pow2(k3);
    plan.chip_side = constraints.chip_side;
    // The paper's optimization moves the type-1 (adjacent-chip) class into
    // the gap between the chips, saving one class of tracks.
    plan.logical_tracks_per_channel = collinear_track_count(pow2(k2), mult) - mult;
    plan.terminals_per_edge = per_edge;
    obs::set(obs::get_gauge("packaging.num_chips"), static_cast<double>(plan.num_chips));
    obs::set(obs::get_gauge("packaging.offchip_links_per_chip"),
             static_cast<double>(plan.offchip_links_per_chip));
    obs::set(obs::get_gauge("packaging.tracks_per_channel"),
             static_cast<double>(plan.logical_tracks_per_channel));
    obs::set(obs::get_gauge("packaging.nodes_per_chip"),
             static_cast<double>(plan.nodes_per_chip));
    return plan;
  }
  throw InvalidArgument("no row-block partition satisfies the pin budget");
}

u64 naive_chip_count(int n, u64 max_offchip_links) {
  const Butterfly bf(n);
  const u64 rows = max_naive_rows_within_pins(bf, max_offchip_links);
  BFLY_REQUIRE(rows >= 1, "pin budget too small for even one row per chip");
  return static_cast<u64>(ceil_div(static_cast<i64>(bf.rows()), static_cast<i64>(rows)));
}

u64 naive_chip_count_paper_estimate(int n, u64 max_offchip_links) {
  const u64 rows = max_offchip_links / (2 * static_cast<u64>(n + 1));
  BFLY_REQUIRE(rows >= 1, "pin budget too small for even one row per chip");
  return static_cast<u64>(ceil_div(static_cast<i64>(pow2(n)), static_cast<i64>(rows)));
}

}  // namespace bfly
