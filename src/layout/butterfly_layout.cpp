#include "layout/butterfly_layout.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bfly {

namespace {

/// Layer pair (vertical-run layer, horizontal-run layer) for a folded channel
/// group.  Even L pairs (2g+1, 2g+2); odd L follows the paper's Sec. 4.2
/// odd-layer-count rule: horizontal groups on layers 1,3,...,L, vertical
/// groups on layers 2,4,...,L-1, with each wire's V assigned to the even
/// layer adjacent to its H layer so that every bend via spans exactly two
/// neighboring layers.
struct LayerPair {
  int v = 1;
  int h = 2;
};

LayerPair row_group_layers(int L, u64 g) {
  if (L % 2 == 0) {
    return {static_cast<int>(2 * g + 1), static_cast<int>(2 * g + 2)};
  }
  const int h = static_cast<int>(2 * g + 1);
  const int v = std::min(static_cast<int>(2 * g + 2), L - 1);
  return {v, h};
}

LayerPair col_group_layers(int L, u64 g) {
  if (L % 2 == 0) {
    return {static_cast<int>(2 * g + 1), static_cast<int>(2 * g + 2)};
  }
  return {static_cast<int>(2 * g + 2), static_cast<int>(2 * g + 3)};
}

LayerPair internal_layers(int L, u64 g = 0) {
  // Intra-block pair of fold group g (group 0 without block folding).
  if (L % 2 == 0) {
    return {static_cast<int>(2 * g + 1), static_cast<int>(2 * g + 2)};
  }
  return {static_cast<int>(2 * g + 2), static_cast<int>(2 * g + 1)};
}

u64 fold_groups_h(int L) { return L % 2 == 0 ? static_cast<u64>(L) / 2 : (static_cast<u64>(L) + 1) / 2; }
u64 fold_groups_v(int L) { return L % 2 == 0 ? static_cast<u64>(L) / 2 : (static_cast<u64>(L) - 1) / 2; }

std::vector<u64> build_type_base(u64 b, u64 mult) {
  // Logical track base per link type d (Appendix B): type d gets
  // min(d, b-d) classes of `mult` replica tracks each.
  std::vector<u64> base(b, 0);
  for (u64 d = 1; d + 1 < b; ++d) {
    base[d + 1] = base[d] + std::min(d, b - d) * mult;
  }
  return base;
}

u64 collinear_logical_track(const std::vector<u64>& type_base, u64 b, u64 mult, u64 p, u64 q,
                            u64 r) {
  BFLY_CHECK(p < q && q < b && r < mult, "collinear track lookup out of range");
  const u64 d = q - p;
  const u64 cls = (d <= b - d) ? (p % d) : p;
  return type_base[d] + cls * mult + r;
}

}  // namespace

std::vector<int> ButterflyLayoutPlan::choose_parameters(int n) {
  BFLY_REQUIRE(n >= 3, "the recursive grid layout needs dimension n >= 3");
  switch (n % 3) {
    case 0:
      return {n / 3, n / 3, n / 3};
    case 1:
      return {(n + 2) / 3, (n - 1) / 3, (n - 1) / 3};
    default:
      return {(n + 1) / 3, (n + 1) / 3, (n - 2) / 3};
  }
}

ButterflyLayoutPlan::ButterflyLayoutPlan(std::vector<int> k, ButterflyLayoutOptions options)
    : k_(k), options_(options), sb_(std::move(k)), n_(sb_.dimension()) {
  BFLY_TRACE_SCOPE("layout.plan");
  BFLY_REQUIRE(k_.size() == 3, "the grid layout is driven by a 3-level ISN");
  BFLY_REQUIRE(options_.layers >= 2, "at least two wiring layers are required");
  BFLY_REQUIRE(options_.node_side >= 4, "node side must fit 4 terminal offsets");
  node_side_ = options_.node_side;

  const int k1 = k_[0];
  const u64 rows_per_block = pow2(k1);

  // --- inter-block channel folding -------------------------------------------
  const u64 bc = grid_cols();
  const u64 br = grid_rows();
  row_mult_ = pow2(2 + k_[0] - k_[1]);
  col_mult_ = pow2(2 + k_[0] - k_[2]);
  row_fold_.logical_tracks = collinear_track_count(bc, row_mult_);
  col_fold_.logical_tracks = collinear_track_count(br, col_mult_);
  row_fold_.groups = fold_groups_h(options_.layers);
  col_fold_.groups = fold_groups_v(options_.layers);
  row_fold_.positions =
      static_cast<i64>(ceil_div(static_cast<i64>(row_fold_.logical_tracks),
                                static_cast<i64>(row_fold_.groups)));
  col_fold_.positions =
      static_cast<i64>(ceil_div(static_cast<i64>(col_fold_.logical_tracks),
                                static_cast<i64>(col_fold_.groups)));

  row_type_base_ = build_type_base(bc, row_mult_);
  col_type_base_ = build_type_base(br, col_mult_);

  // --- intra-block channel folding tables -------------------------------------
  if (options_.fold_block_channels) {
    BFLY_TRACE_SCOPE("layout.plan.fold_tables");
    build_fold_tables();
  }

  // --- intra-block channels --------------------------------------------------
  BFLY_TRACE_SCOPE("layout.plan.assign_tracks");
  chan_width_.assign(static_cast<std::size_t>(n_), 0);
  exchange_track_.assign(static_cast<std::size_t>(n_), {});
  const i64 g_int = internal_group_count();
  for (int s = 0; s < n_; ++s) {
    if (sb_.is_swap_transition(s)) {
      chan_width_[static_cast<std::size_t>(s)] =
          swap_channel_width(sb_.level_of_transition(s));
      continue;
    }
    const int level = sb_.level_of_transition(s);
    const int j = s - sb_.prefix(level - 1);
    // Block-local net intervals: out terminal (offset 2/3) of (u, s) to in
    // terminal (offset 0/1) of the target row at stage s+1.
    std::vector<Interval> intervals;
    intervals.reserve(2 * rows_per_block);
    for (u64 u = 0; u < rows_per_block; ++u) {
      const i64 y_out_straight = static_cast<i64>(u) * node_side_ + 2;
      const i64 y_in_straight = static_cast<i64>(u) * node_side_ + 0;
      intervals.push_back(make_interval(y_out_straight, y_in_straight));
      const u64 w = u ^ pow2(j);
      const i64 y_out_cross = static_cast<i64>(u) * node_side_ + 3;
      const i64 y_in_cross = static_cast<i64>(w) * node_side_ + 1;
      intervals.push_back(make_interval(y_out_cross, y_in_cross));
    }
    TrackAssignment assignment = assign_tracks_left_edge(intervals);
    const i64 tracks = static_cast<i64>(assignment.num_tracks);
    chan_width_[static_cast<std::size_t>(s)] =
        options_.fold_block_channels ? ceil_div(tracks, g_int) : tracks;
    exchange_track_[static_cast<std::size_t>(s)] = std::move(assignment.track);
  }

  col_x0_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int s = 0; s < n_; ++s) {
    col_x0_[static_cast<std::size_t>(s) + 1] =
        col_x0_[static_cast<std::size_t>(s)] + node_side_ + chan_width_[static_cast<std::size_t>(s)];
  }
  block_width_ = col_x0_[static_cast<std::size_t>(n_)] + node_side_;

  service_height_ = options_.fold_block_channels ? l3_width_
                                                 : static_cast<i64>(4 * rows_per_block);
  block_height_ = service_height_ + static_cast<i64>(rows_per_block) * node_side_;

  cell_width_ = block_width_ + col_fold_.positions;
  cell_height_ = block_height_ + row_fold_.positions;
}

int ButterflyLayoutPlan::internal_group_count() const {
  if (!options_.fold_block_channels) return 1;
  return options_.layers % 2 == 0 ? options_.layers / 2
                                  : std::max(1, (options_.layers - 1) / 2);
}

i64 ButterflyLayoutPlan::swap_channel_width(int level) const {
  if (!options_.fold_block_channels) return static_cast<i64>(4 * pow2(k_[0]));
  return level == 2 ? l2_width_ : l3_width_;
}

void ButterflyLayoutPlan::build_fold_tables() {
  const int k1 = k_[0];
  const u64 rows_per_block = pow2(k1);
  const u64 slots = 4 * rows_per_block;

  // One table per grid position along the channel's axis.  Each slot maps to
  // a physical track: cross-block endpoints get dense peer-monotone ranks
  // within their channel group (groups overlay a shared x-range); in-block
  // endpoints take a trailing dedicated range.
  const auto build = [&](int level, u64 positions_along, const std::vector<u64>& type_base,
                         u64 mult, u64 blocks_along, u64 num_groups,
                         std::vector<std::vector<i64>>* tables, i64* width) {
    const int ki = k_[static_cast<std::size_t>(level - 1)];
    const u64 mask = pow2(ki) - 1;
    const u64 side_count = pow2(k1 - ki + 1);
    const u64 group_sentinel = ~u64{0};
    // Wires overlaid at the same physical track must differ in their
    // *vertical-run layer* (drops and in-channel verticals share x).  With
    // odd L two horizontal groups can map to the same V layer, so rank by
    // the V layer, not by the raw channel group.
    const auto overlay_class = [&](u64 channel_group) -> u64 {
      const LayerPair lp = (level == 2) ? row_group_layers(options_.layers, channel_group)
                                        : col_group_layers(options_.layers, channel_group);
      return static_cast<u64>(lp.v);
    };

    // First pass: per-position slot groups; global max widths.
    std::vector<std::vector<u64>> slot_group(positions_along, std::vector<u64>(slots, 0));
    u64 max_group_width = 0;
    u64 max_internal = 0;
    for (u64 p = 0; p < positions_along; ++p) {
      std::vector<u64> group_count;
      u64 internal_count = 0;
      for (u64 loc = 0; loc < rows_per_block; ++loc) {
        for (int kind = 0; kind < 2; ++kind) {
          // OUT endpoint at this block toward peer q.
          const u64 q_out = loc & mask;
          const u64 sub = ((loc >> ki) << 1) | static_cast<u64>(kind);
          const u64 slot_out = q_out * (2 * side_count) + sub;
          if (q_out == p) {
            slot_group[p][slot_out] = group_sentinel;
            ++internal_count;
          } else {
            const u64 r = (p < q_out) ? sub : side_count + sub;
            const u64 logical = collinear_logical_track(type_base, blocks_along, mult,
                                                        std::min(p, q_out), std::max(p, q_out), r);
            const u64 g = overlay_class(logical % num_groups);
            slot_group[p][slot_out] = g;
            if (g >= group_count.size()) group_count.resize(g + 1, 0);
            ++group_count[g];
          }
          // IN endpoint at this block from peer q_in.
          const u64 q_in = (loc ^ static_cast<u64>(kind != 0 ? 1 : 0)) & mask;
          const u64 slot_in = q_in * (2 * side_count) + side_count + sub;
          if (q_in == p) {
            slot_group[p][slot_in] = group_sentinel;
            ++internal_count;
          } else {
            const u64 r = (q_in < p) ? sub : side_count + sub;
            const u64 logical = collinear_logical_track(type_base, blocks_along, mult,
                                                        std::min(p, q_in), std::max(p, q_in), r);
            const u64 g = overlay_class(logical % num_groups);
            slot_group[p][slot_in] = g;
            if (g >= group_count.size()) group_count.resize(g + 1, 0);
            ++group_count[g];
          }
        }
      }
      for (const u64 c : group_count) max_group_width = std::max(max_group_width, c);
      max_internal = std::max(max_internal, internal_count);
    }

    // Second pass: assign physical tracks in slot order.
    tables->assign(positions_along, std::vector<i64>(slots, -1));
    for (u64 p = 0; p < positions_along; ++p) {
      std::vector<u64> next_rank;
      u64 next_internal = 0;
      for (u64 slot = 0; slot < slots; ++slot) {
        const u64 g = slot_group[p][slot];
        if (g == group_sentinel) {
          (*tables)[p][slot] = static_cast<i64>(max_group_width + next_internal++);
        } else {
          if (g >= next_rank.size()) next_rank.resize(g + 1, 0);
          (*tables)[p][slot] = static_cast<i64>(next_rank[g]++);
        }
      }
    }
    *width = static_cast<i64>(max_group_width + max_internal);
  };

  build(2, grid_cols(), row_type_base_, row_mult_, grid_cols(), row_fold_.groups,
        &l2_fold_, &l2_width_);
  build(3, grid_rows(), col_type_base_, col_mult_, grid_rows(), col_fold_.groups,
        &l3_fold_, &l3_width_);
}

i64 ButterflyLayoutPlan::folded_swap_track(int level, bool out, u64 row, int kind) const {
  const i64 slot = swap_channel_slot(level, out, row, kind);
  if (!options_.fold_block_channels) return slot;
  const u64 b = block_of_row(row);
  const u64 p = (level == 2) ? grid_col_of_block(b) : grid_row_of_block(b);
  const auto& tables = (level == 2) ? l2_fold_ : l3_fold_;
  return tables[p][static_cast<u64>(slot)];
}

i64 ButterflyLayoutPlan::terminal_y(u64 row, int offset) const {
  return block_y0(block_of_row(row)) + service_height_ +
         static_cast<i64>(local_row(row)) * node_side_ + offset;
}

i64 ButterflyLayoutPlan::column_x0(int s) const { return col_x0_[static_cast<std::size_t>(s)]; }

i64 ButterflyLayoutPlan::channel_track_x(int s, i64 t) const {
  BFLY_CHECK(t >= 0 && t < chan_width_[static_cast<std::size_t>(s)], "channel track out of range");
  return col_x0_[static_cast<std::size_t>(s)] + node_side_ + t;
}

i64 ButterflyLayoutPlan::row_track_y(u64 grid_row, u64 logical_track, int* h_layer,
                                     int* v_layer) const {
  // Interleaved folding (group = logical mod G): consecutive logical tracks
  // land in different groups, so the replica runs of any block pair spread
  // evenly across groups -- this keeps the folded swap-channel widths close
  // to (endpoints / G) instead of concentrating in one group.
  const u64 group = logical_track % row_fold_.groups;
  const u64 position = logical_track / row_fold_.groups;
  const LayerPair lp = row_group_layers(options_.layers, group);
  *h_layer = lp.h;
  *v_layer = lp.v;
  return static_cast<i64>(grid_row) * cell_height_ + block_height_ + static_cast<i64>(position);
}

i64 ButterflyLayoutPlan::col_track_x(u64 grid_col, u64 logical_track, int* h_layer,
                                     int* v_layer) const {
  const u64 group = logical_track % col_fold_.groups;
  const u64 position = logical_track / col_fold_.groups;
  const LayerPair lp = col_group_layers(options_.layers, group);
  *h_layer = lp.h;
  *v_layer = lp.v;
  return static_cast<i64>(grid_col) * cell_width_ + block_width_ + static_cast<i64>(position);
}

void ButterflyLayoutPlan::for_each_node(NodeSink fn) const {
  const u64 rows = sb_.rows();
  for (int s = 0; s <= n_; ++s) {
    for (u64 u = 0; u < rows; ++u) {
      const i64 x = block_x0(block_of_row(u)) + column_x0(s);
      const i64 y = terminal_y(u, 0);
      fn(sb_.node_id(u, s), Rect::square(x, y, node_side_));
    }
  }
}

void ButterflyLayoutPlan::emit_exchange_wire(u64 u, int s, int kind, WireSink fn) const {
  const int level = sb_.level_of_transition(s);
  const int j = s - sb_.prefix(level - 1);
  const u64 w = kind == 0 ? u : (u ^ pow2(j));
  const u64 net = 2 * local_row(u) + static_cast<u64>(kind);
  i64 track = static_cast<i64>(exchange_track_[static_cast<std::size_t>(s)][net]);
  u64 fold_group = 0;
  if (options_.fold_block_channels) {
    const i64 positions = chan_width_[static_cast<std::size_t>(s)];
    fold_group = static_cast<u64>(track / positions);
    track = track % positions;
  }
  const LayerPair lp = internal_layers(options_.layers, fold_group);

  const i64 bx = block_x0(block_of_row(u));
  const i64 from_x = bx + column_x0(s) + node_side_ - 1;
  const i64 from_y = terminal_y(u, 2 + kind);
  const i64 track_x = bx + channel_track_x(s, track);
  const i64 to_x = bx + column_x0(s + 1);
  const i64 to_y = terminal_y(w, kind);

  fn(WireBuilder(Point{from_x, from_y})
         .from(sb_.node_id(u, s))
         .to_x(track_x, lp.h)
         .to_y(to_y, lp.v)
         .to_x(to_x, lp.h)
         .to(sb_.node_id(w, s + 1))
         .wire());
}

i64 ButterflyLayoutPlan::swap_channel_slot(int level, bool out, u64 row, int kind) const {
  const int ki = k_[static_cast<std::size_t>(level - 1)];
  const u64 loc = local_row(row);
  const u64 mask = pow2(ki) - 1;
  // Peer block position along the channel's grid axis: for an outgoing link
  // it is sigma's target (the low k_i bits of the row); for an incoming link
  // it is the source block's position (undo the cross-kind bit flip first).
  const u64 peer = out ? (loc & mask) : ((loc ^ (kind != 0 ? 1u : 0u)) & mask);
  const u64 group_size = pow2(k_[0] - ki + 2);
  const u64 sub = (out ? 0 : group_size / 2) + (((loc >> ki) << 1) | static_cast<u64>(kind));
  return static_cast<i64>(peer * group_size + sub);
}

u64 ButterflyLayoutPlan::boundary_replica(int level, u64 u, int kind) const {
  // Index of this link among the links between its (source, dest) block pair:
  // links sourced at the lower-indexed block come first, ordered by
  // (local row >> k_i, kind); then the higher-indexed block's links.
  const int ki = k_[static_cast<std::size_t>(level - 1)];
  const u64 u_loc = local_row(u);
  const u64 side_index = ((u_loc >> ki) << 1) | static_cast<u64>(kind);
  const u64 side_count = pow2(k_[0] - ki + 1);

  const u64 w = (kind == 0) ? sb_.isn().sigma(level, u) : (sb_.isn().sigma(level, u) ^ 1);
  const u64 a = block_of_row(u);
  const u64 b = block_of_row(w);
  BFLY_CHECK(a != b, "boundary_replica is only defined for inter-block links");
  const u64 pos_a = (level == 2) ? grid_col_of_block(a) : grid_row_of_block(a);
  const u64 pos_b = (level == 2) ? grid_col_of_block(b) : grid_row_of_block(b);
  return (pos_a < pos_b) ? side_index : side_count + side_index;
}

void ButterflyLayoutPlan::emit_level2_wire(u64 u, int kind, WireSink fn) const {
  const int s = sb_.prefix(1);  // transition n1 -> n1+1
  const u64 w = (kind == 0) ? sb_.isn().sigma(2, u) : (sb_.isn().sigma(2, u) ^ 1);
  const u64 a = block_of_row(u);
  const u64 b = block_of_row(w);

  const i64 out_track = folded_swap_track(2, /*out=*/true, u, kind);
  const i64 in_track = folded_swap_track(2, /*out=*/false, w, kind);
  const i64 from_x = block_x0(a) + column_x0(s) + node_side_ - 1;
  const i64 from_y = terminal_y(u, 2 + kind);
  const i64 to_x = block_x0(b) + column_x0(s + 1);
  const i64 to_y = terminal_y(w, kind);
  const i64 out_x = block_x0(a) + channel_track_x(s, out_track);
  const i64 in_x = block_x0(b) + channel_track_x(s, in_track);

  if (a == b) {
    const LayerPair lp = internal_layers(options_.layers);
    fn(WireBuilder(Point{from_x, from_y})
           .from(sb_.node_id(u, s))
           .to_x(out_x, lp.h)
           .to_y(to_y, lp.v)
           .to_x(to_x, lp.h)
           .to(sb_.node_id(w, s + 1))
           .wire());
    return;
  }

  const u64 pa = grid_col_of_block(a);
  const u64 pb = grid_col_of_block(b);
  const u64 r = boundary_replica(2, u, kind);
  const u64 logical = collinear_logical_track(row_type_base_, grid_cols(), row_mult_,
                                              std::min(pa, pb), std::max(pa, pb), r);
  int h_layer = 0;
  int v_layer = 0;
  const i64 track_y = row_track_y(grid_row_of_block(a), logical, &h_layer, &v_layer);

  fn(WireBuilder(Point{from_x, from_y})
         .from(sb_.node_id(u, s))
         .to_x(out_x, h_layer)
         .to_y(track_y, v_layer)
         .to_x(in_x, h_layer)
         .to_y(to_y, v_layer)
         .to_x(to_x, h_layer)
         .to(sb_.node_id(w, s + 1))
         .wire());
}

void ButterflyLayoutPlan::emit_level3_wire(u64 u, int kind, WireSink fn) const {
  const int s = sb_.prefix(2);  // transition n2 -> n2+1
  const u64 w = (kind == 0) ? sb_.isn().sigma(3, u) : (sb_.isn().sigma(3, u) ^ 1);
  const u64 a = block_of_row(u);
  const u64 b = block_of_row(w);

  const i64 out_track = folded_swap_track(3, /*out=*/true, u, kind);
  const i64 in_track = folded_swap_track(3, /*out=*/false, w, kind);
  const i64 from_x = block_x0(a) + column_x0(s) + node_side_ - 1;
  const i64 from_y = terminal_y(u, 2 + kind);
  const i64 to_x = block_x0(b) + column_x0(s + 1);
  const i64 to_y = terminal_y(w, kind);
  const i64 out_x = block_x0(a) + channel_track_x(s, out_track);
  const i64 in_x = block_x0(b) + channel_track_x(s, in_track);

  if (a == b) {
    const LayerPair lp = internal_layers(options_.layers);
    fn(WireBuilder(Point{from_x, from_y})
           .from(sb_.node_id(u, s))
           .to_x(out_x, lp.h)
           .to_y(to_y, lp.v)
           .to_x(to_x, lp.h)
           .to(sb_.node_id(w, s + 1))
           .wire());
    return;
  }

  // Service-channel exit to the vertical channel right of the grid column.
  // The service row reuses the slot index, so slots double as the per-block
  // service track order (again peer-monotone for shared column tracks).
  const i64 service_out_y = block_y0(a) + out_track;
  const i64 service_in_y = block_y0(b) + in_track;
  const u64 pa = grid_row_of_block(a);
  const u64 pb = grid_row_of_block(b);
  const u64 r = boundary_replica(3, u, kind);
  const u64 logical = collinear_logical_track(col_type_base_, grid_rows(), col_mult_,
                                              std::min(pa, pb), std::max(pa, pb), r);
  int h_layer = 0;
  int v_layer = 0;
  const i64 track_x = col_track_x(grid_col_of_block(a), logical, &h_layer, &v_layer);

  fn(WireBuilder(Point{from_x, from_y})
         .from(sb_.node_id(u, s))
         .to_x(out_x, h_layer)
         .to_y(service_out_y, v_layer)
         .to_x(track_x, h_layer)
         .to_y(service_in_y, v_layer)
         .to_x(in_x, h_layer)
         .to_y(to_y, v_layer)
         .to_x(to_x, h_layer)
         .to(sb_.node_id(w, s + 1))
         .wire());
}

void ButterflyLayoutPlan::for_each_wire(WireSink fn) const {
  const u64 rows = sb_.rows();
  for (int s = 0; s < n_; ++s) {
    const bool boundary = sb_.is_swap_transition(s);
    const int level = sb_.level_of_transition(s);
    for (u64 u = 0; u < rows; ++u) {
      for (int kind = 0; kind < 2; ++kind) {
        if (!boundary) {
          emit_exchange_wire(u, s, kind, fn);
        } else if (level == 2) {
          emit_level2_wire(u, kind, fn);
        } else {
          emit_level3_wire(u, kind, fn);
        }
      }
    }
  }
}

Layout ButterflyLayoutPlan::materialize() const {
  BFLY_TRACE_SCOPE("layout.materialize");
  Layout layout;
  layout.reserve(sb_.num_nodes(), sb_.num_links());
  {
    BFLY_TRACE_SCOPE("layout.place_nodes");
    for_each_node([&](u64 id, Rect r) { layout.add_node(id, r); });
  }
  {
    BFLY_TRACE_SCOPE("layout.route_wires");
    for_each_wire([&](const InlineWire& w) { layout.add_wire(w.to_wire()); });
  }
  return layout;
}

LayoutMetrics ButterflyLayoutPlan::metrics() const {
  BFLY_TRACE_SCOPE("layout.metrics");
  MetricsAccumulator acc;
  for_each_node([&](u64, Rect r) { acc.add_node(r); });
  for_each_wire([&](const InlineWire& w) { acc.add_wire(w); });
  const LayoutMetrics m = acc.finish();
  obs::set(obs::get_gauge("layout.area"), static_cast<double>(m.area));
  obs::set(obs::get_gauge("layout.max_wire_length"), static_cast<double>(m.max_wire_length));
  obs::set(obs::get_gauge("layout.num_wires"), static_cast<double>(m.num_wires));
  return m;
}

std::vector<i64> link_wire_lengths(const ButterflyLayoutPlan& plan) {
  const SwapButterfly& net = plan.network();
  const u64 rows = net.rows();
  std::vector<i64> lengths(static_cast<std::size_t>(net.num_links()), 0);
  plan.for_each_wire([&](const InlineWire& wire) {
    BFLY_CHECK(wire.from_node.has_value() && wire.to_node.has_value(),
               "layout wire is not attached to nodes");
    const int s = net.stage_of(*wire.from_node);
    BFLY_CHECK(net.stage_of(*wire.to_node) == s + 1, "layout wire is not a stage link");
    // Map both endpoints through the stage row maps: the dense id must be the
    // one the *butterfly* simulators use, not the swap-butterfly labeling.
    const u64 r1 = net.rho(s, net.row_of(*wire.from_node));
    const u64 r2 = net.rho(s + 1, net.row_of(*wire.to_node));
    const bool cross = r1 != r2;
    const u64 link = (static_cast<u64>(s) * rows + r1) * 2 + (cross ? 1 : 0);
    lengths[static_cast<std::size_t>(link)] = wire.length();
  });
  return lengths;
}

}  // namespace bfly
