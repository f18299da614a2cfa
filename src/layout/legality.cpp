#include "layout/legality.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bfly {

std::string LegalityReport::summary() const {
  if (ok) {
    std::ostringstream os;
    os << "legal (" << segments_checked << " segments, " << vias_checked << " vias)";
    return os.str();
  }
  std::ostringstream os;
  os << violations.size() << "+ violations; first: " << (violations.empty() ? "?" : violations[0]);
  return os.str();
}

namespace {

/// One wire segment, compact (32 bytes) for the sorts and sweeps.  Its layer
/// and orientation are those of the SegmentTable class that holds it.
struct CheckSeg {
  i64 fixed = 0;  // y for horizontal, x for vertical
  i64 lo = 0;     // range along the segment: x for horizontal, y for vertical
  i64 hi = 0;
  u32 wire = 0;
  u32 index = 0;  // segment index within the wire

  friend bool operator<(const CheckSeg& a, const CheckSeg& b) {
    return std::tie(a.fixed, a.lo, a.hi, a.wire, a.index) <
           std::tie(b.fixed, b.lo, b.hi, b.wire, b.index);
  }
};

/// A wire's own consecutive segments.
bool same_wire_adjacent(const CheckSeg& a, const CheckSeg& b) {
  return a.wire == b.wire && (a.index + 1 == b.index || b.index + 1 == a.index);
}

Point seg_point(Orientation orient, i64 fixed, i64 along) {
  return orient == Orientation::kHorizontal ? Point{along, fixed} : Point{fixed, along};
}

struct Via {
  Point p;
  u32 wire = 0;
  int zlo = 0;
  int zhi = 0;
};

class Reporter {
 public:
  Reporter(LegalityReport* report, std::size_t cap) : report_(report), cap_(cap) {}

  bool full() const { return report_->violations.size() >= cap_; }

  template <typename... Args>
  void violation(Args&&... args) {
    report_->ok = false;
    if (full()) return;
    std::ostringstream os;
    (os << ... << args);
    report_->violations.push_back(os.str());
  }

 private:
  LegalityReport* report_;
  std::size_t cap_;
};

std::string point_str(Point p) {
  std::ostringstream os;
  os << '(' << p.x << ',' << p.y << ')';
  return os.str();
}

u32 wire_index(std::size_t w) {
  BFLY_REQUIRE(w <= std::numeric_limits<u32>::max(), "legality checks take at most 2^32 wires");
  return static_cast<u32>(w);
}

/// Every segment of a layout, bucketed into classes -- (layer, orientation)
/// for the multilayer model, orientation alone for the Thompson model -- and
/// sorted within each class by (fixed, lo, hi, wire, index).  The one table
/// serves the collinear sweep, the crossing sweeps, the via lookups (a
/// forward CoverScan per class) and the node clearance claims.
class SegmentTable {
 public:
  SegmentTable(const Layout& layout, bool by_layer) {
    const std::vector<Wire>& wires = layout.wires();
    for (const Wire& wire : wires) {
      for (const int layer : wire.layers) max_layer_ = std::max(max_layer_, layer);
    }
    // Counting sort by class, then a sort within each class.
    const std::size_t classes = by_layer ? 2 * (static_cast<std::size_t>(max_layer_) + 1) : 2;
    const auto class_of = [&](const Wire& wire, std::size_t i) {
      const std::size_t vertical = wire.points[i].x == wire.points[i + 1].x ? 1 : 0;
      return by_layer ? 2 * static_cast<std::size_t>(wire.layers[i]) + vertical : vertical;
    };
    begin_.assign(classes + 1, 0);
    for (const Wire& wire : wires) {
      for (std::size_t i = 0; i < wire.layers.size(); ++i) ++begin_[class_of(wire, i) + 1];
    }
    for (std::size_t c = 0; c < classes; ++c) begin_[c + 1] += begin_[c];
    segs_.resize(begin_[classes]);
    std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
    for (std::size_t w = 0; w < wires.size(); ++w) {
      const Wire& wire = wires[w];
      for (std::size_t i = 0; i < wire.layers.size(); ++i) {
        const Point a = wire.points[i];
        const Point b = wire.points[i + 1];
        const bool horizontal = a.y == b.y;
        CheckSeg& s = segs_[fill[class_of(wire, i)]++];
        s.fixed = horizontal ? a.y : a.x;
        s.lo = horizontal ? std::min(a.x, b.x) : std::min(a.y, b.y);
        s.hi = horizontal ? std::max(a.x, b.x) : std::max(a.y, b.y);
        s.wire = wire_index(w);
        s.index = static_cast<u32>(i);
      }
    }
    for (std::size_t c = 0; c < classes; ++c) {
      std::sort(segs_.begin() + static_cast<std::ptrdiff_t>(begin_[c]),
                segs_.begin() + static_cast<std::ptrdiff_t>(begin_[c + 1]));
    }
  }

  std::size_t size() const { return segs_.size(); }
  /// Highest layer of any segment (at least 1).
  int max_layer() const { return max_layer_; }
  std::size_t num_classes() const { return begin_.size() - 1; }
  /// The class of `layer` (0 for the Thompson table) and `orient`.
  std::span<const CheckSeg> of(int layer, Orientation orient) const {
    return of_class(2 * static_cast<std::size_t>(layer) +
                    (orient == Orientation::kVertical ? 1 : 0));
  }
  std::span<const CheckSeg> of_class(std::size_t c) const {
    return {segs_.data() + begin_[c], begin_[c + 1] - begin_[c]};
  }

 private:
  std::vector<CheckSeg> segs_;
  std::vector<std::size_t> begin_;  // class c occupies [begin_[c], begin_[c+1])
  int max_layer_ = 1;
};

/// Finds a segment of one class covering a point, for points that arrive in
/// non-decreasing (fixed, along) order: the class is scanned forward once.
class CoverScan {
 public:
  explicit CoverScan(std::span<const CheckSeg> segs) : segs_(segs) {}

  /// Returns a segment covering coordinate `along` on line `fixed`, or
  /// nullptr.  (Assumes non-overlapping segments within a line, which the
  /// overlap check enforces; with overlaps present, any one covering segment
  /// is returned.)
  const CheckSeg* covering(i64 fixed, i64 along) {
    // next_: the first segment whose (fixed, lo) follows (fixed, along).
    while (next_ < segs_.size() &&
           (segs_[next_].fixed < fixed || (segs_[next_].fixed == fixed && segs_[next_].lo <= along))) {
      ++next_;
    }
    // Segments within a legal line are disjoint except for single-point
    // touches, so at most two candidates can cover `along`.
    for (std::size_t back = 1; back <= 2 && back <= next_; ++back) {
      const CheckSeg& s = segs_[next_ - back];
      if (s.fixed != fixed) break;
      if (s.hi >= along) return &s;
    }
    return nullptr;
  }

 private:
  std::span<const CheckSeg> segs_;
  std::size_t next_ = 0;
};

/// Node id -> rectangle, flat: entries sorted by id.  Every plan in the
/// library numbers its nodes 0..N-1, so entry `id` is probed first.
class NodeTable {
 public:
  explicit NodeTable(const Layout& layout) {
    by_id_.reserve(layout.nodes().size());
    for (const PlacedNode& n : layout.nodes()) by_id_.push_back(n);
    std::sort(by_id_.begin(), by_id_.end(),
              [](const PlacedNode& a, const PlacedNode& b) { return a.id < b.id; });
  }

  /// The node's rectangle, or nullptr for an unknown id.
  const Rect* find(u64 id) const {
    if (id < by_id_.size() && by_id_[id].id == id) return &by_id_[id].rect;
    const auto it = std::lower_bound(by_id_.begin(), by_id_.end(), id,
                                     [](const PlacedNode& n, u64 v) { return n.id < v; });
    return it != by_id_.end() && it->id == id ? &it->rect : nullptr;
  }

 private:
  std::vector<PlacedNode> by_id_;
};

/// Node rectangles swept over x: the active set -- rectangles with
/// x0 <= x <= x1 -- is a flat array sorted by y0, rebuilt by a merge when
/// rectangles enter and by a filter when they leave.
class NodeSweep {
 public:
  struct Entry {
    i64 y0;
    i64 y1;
    i64 x0;
    i64 x1;
    std::size_t node;  // index into the rects the sweep was built from
  };

  /// `rects[i]` is node i's rectangle in the sweep's frame.
  explicit NodeSweep(std::span<const Rect> rects) {
    pending_.reserve(rects.size());
    for (std::size_t i = 0; i < rects.size(); ++i) {
      const Rect& r = rects[i];
      pending_.push_back({r.y0, r.y1, r.x0, r.x1, i});
    }
    std::sort(pending_.begin(), pending_.end(), [](const Entry& a, const Entry& b) {
      return std::tie(a.x0, a.y0) < std::tie(b.x0, b.y0);
    });
  }

  /// x0 of the next rectangle to enter, or the largest i64 when none is left.
  i64 next_entry() const {
    return next_ < pending_.size() ? pending_[next_].x0 : std::numeric_limits<i64>::max();
  }

  /// Moves the sweep to `x` (never decreasing): rectangles with x1 < x leave,
  /// those with x0 <= x <= x1 enter.
  void advance(i64 x) {
    if (x > expiry_) {
      std::erase_if(active_, [x](const Entry& e) { return e.x1 < x; });
      expiry_ = std::numeric_limits<i64>::max();
      for (const Entry& e : active_) expiry_ = std::min(expiry_, e.x1);
    }
    if (next_ >= pending_.size() || pending_[next_].x0 > x) return;
    batch_.clear();
    for (; next_ < pending_.size() && pending_[next_].x0 <= x; ++next_) {
      const Entry& e = pending_[next_];
      if (e.x1 < x) continue;
      batch_.push_back(e);
      expiry_ = std::min(expiry_, e.x1);
    }
    std::sort(batch_.begin(), batch_.end(),
              [](const Entry& a, const Entry& b) { return a.y0 < b.y0; });
    merged_.clear();
    std::merge(active_.begin(), active_.end(), batch_.begin(), batch_.end(),
               std::back_inserter(merged_),
               [](const Entry& a, const Entry& b) { return a.y0 < b.y0; });
    active_.swap(merged_);
  }

  /// The active rectangles, sorted by y0.
  std::span<const Entry> active() const { return active_; }

 private:
  std::vector<Entry> pending_;  // sorted by (x0, y0); [next_, end) not yet entered
  std::size_t next_ = 0;
  std::vector<Entry> active_;
  std::vector<Entry> batch_;
  std::vector<Entry> merged_;
  i64 expiry_ = std::numeric_limits<i64>::max();  // smallest x1 in active_
};

/// Checks that segments of equal orientation in the same class (same
/// implicit or explicit layer) and on the same line never share a point,
/// except a wire's own consecutive segments touching at the junction.
void check_collinear_overlaps(const SegmentTable& table, Reporter& rep, const char* model_name) {
  for (std::size_t c = 0; c < table.num_classes(); ++c) {
    const std::span<const CheckSeg> segs = table.of_class(c);
    const Orientation orient = c % 2 == 0 ? Orientation::kHorizontal : Orientation::kVertical;
    auto report_pair = [&](const CheckSeg& a, const CheckSeg& b) {
      const bool touch_only = (b.lo == a.hi);
      if (touch_only && same_wire_adjacent(a, b)) return;
      if (rep.full()) return;
      rep.violation(model_name, ": collinear overlap between wire ", a.wire, " seg ", a.index,
                    " and wire ", b.wire, " seg ", b.index, " at ",
                    point_str(seg_point(orient, b.fixed, b.lo)));
    };
    // Within each line, sorted by lo, any overlap must involve the running
    // max-hi segment seen so far; carry it in O(1).
    std::size_t carry = 0;  // index of the running max-hi segment in this line
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (i == 0 || segs[carry].fixed != segs[i].fixed) {
        carry = i;
        continue;
      }
      if (segs[i].lo <= segs[carry].hi) report_pair(segs[carry], segs[i]);
      if (i != carry + 1 && segs[i].lo <= segs[i - 1].hi) report_pair(segs[i - 1], segs[i]);
      if (segs[i].hi > segs[carry].hi) carry = i;
      if (rep.full()) return;
    }
  }
}

/// Orthogonal crossing discipline between horizontal set `hs` and vertical
/// set `vs` (both one class, e.g. one layer).
/// `allow_proper`: proper (interior x interior) crossings are legal (Thompson
/// model); improper contacts (a shared endpoint) are always illegal except a
/// wire's own consecutive segments meeting at their bend.
void check_crossings(std::span<const CheckSeg> hs, std::span<const CheckSeg> vs,
                     bool allow_proper, Reporter& rep, const char* model_name) {
  if (hs.empty() || vs.empty()) return;
  // Sweep over x.  Events: horizontal segment activates at lo and
  // deactivates after hi; vertical segments are queried at their x.
  struct Event {
    i64 x;
    int kind;  // 0 = activate H, 1 = deactivate H, 2 = query V
    std::size_t idx;
  };
  std::vector<Event> events;
  events.reserve(hs.size() * 2 + vs.size());
  for (std::size_t i = 0; i < hs.size(); ++i) {
    events.push_back({hs[i].lo, 0, i});
    events.push_back({hs[i].hi + 1, 1, i});
  }
  for (std::size_t i = 0; i < vs.size(); ++i) {
    events.push_back({vs[i].fixed, 2, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.x, a.kind) < std::tie(b.x, b.kind);
  });
  // Active horizontals keyed by y.
  std::multimap<i64, std::size_t> active;
  for (const Event& e : events) {
    if (e.kind == 0) {
      active.emplace(hs[e.idx].fixed, e.idx);
    } else if (e.kind == 1) {
      const auto [lo, hi] = active.equal_range(hs[e.idx].fixed);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.idx) {
          active.erase(it);
          break;
        }
      }
    } else {
      const CheckSeg& v = vs[e.idx];
      for (auto it = active.lower_bound(v.lo); it != active.end() && it->first <= v.hi; ++it) {
        const CheckSeg& h = hs[it->second];
        const Point cross{v.fixed, h.fixed};
        const bool h_interior = cross.x > h.lo && cross.x < h.hi;
        const bool v_interior = cross.y > v.lo && cross.y < v.hi;
        if (allow_proper && h_interior && v_interior) continue;
        if (same_wire_adjacent(h, v)) continue;
        if (rep.full()) return;
        rep.violation(model_name, ": illegal contact between horizontal wire ", h.wire, " seg ",
                      h.index, " and vertical wire ", v.wire, " seg ", v.index, " at ",
                      point_str(cross));
      }
    }
  }
}

/// Node clearance: each claim is a vertical segment, or a point (a via
/// foot), that must not touch any node rectangle, except that a wire may
/// touch its own terminal node at exactly its endpoint.  Claims are CheckSegs
/// sorted by `fixed`, the sweep coordinate x.  With `transposed`, the claims
/// and the sweep are in the frame with x and y swapped (horizontal segments
/// become vertical claims); the endpoint exemption is decided in the
/// layout's own frame.
void check_node_clearance(const Layout& layout, const NodeTable& nodes,
                          std::span<const CheckSeg> claims, bool transposed, Reporter& rep,
                          const char* model_name) {
  if (layout.nodes().empty() || claims.empty()) return;
  // Node rects with overlapping x but overlapping y would themselves be
  // illegal; checked in check_nodes_disjoint, so the active set has disjoint
  // y-intervals.
  std::vector<Rect> rects;
  rects.reserve(layout.nodes().size());
  for (const PlacedNode& n : layout.nodes()) {
    rects.push_back(transposed ? Rect{n.rect.y0, n.rect.x0, n.rect.y1, n.rect.x1} : n.rect);
  }
  NodeSweep sweep(rects);
  const auto touches_own_terminal = [&](const Wire& wire, Point touch) {
    const auto at = [&](const std::optional<u64>& node, Point end) {
      if (!node.has_value() || end != touch) return false;
      const Rect* rect = nodes.find(*node);
      return rect != nullptr && rect->contains(touch);
    };
    return at(wire.from_node, wire.points.front()) || at(wire.to_node, wire.points.back());
  };
  for (const CheckSeg& c : claims) {
    sweep.advance(c.fixed);
    const std::span<const NodeSweep::Entry> active = sweep.active();
    // Nodes whose [y0, y1] overlaps [c.lo, c.hi].
    auto it = std::upper_bound(active.begin(), active.end(), c.hi,
                               [](i64 v, const NodeSweep::Entry& e) { return v < e.y0; });
    while (it != active.begin()) {
      --it;
      if (it->y1 < c.lo) break;
      const i64 lo = std::max(it->y0, c.lo);
      const i64 hi = std::min(it->y1, c.hi);
      // Exemption: single-point touch at the claiming wire's endpoint on
      // its own terminal node.
      if (lo == hi) {
        const Point touch = transposed ? Point{lo, c.fixed} : Point{c.fixed, lo};
        if (touches_own_terminal(layout.wires()[c.wire], touch)) continue;
      }
      if (rep.full()) return;
      rep.violation(model_name, ": wire ", c.wire, " intrudes into node ",
                    layout.nodes()[it->node].id, " at x=", c.fixed, " y=[", lo, ",", hi, "]");
    }
  }
}

void check_nodes_disjoint(const Layout& layout, Reporter& rep) {
  // Sweep over x; active rects must have disjoint y-intervals.  Rects that
  // end before x leave before those starting at x enter, so x-adjacent rects
  // are never active together.
  std::vector<Rect> rects;
  rects.reserve(layout.nodes().size());
  for (const PlacedNode& n : layout.nodes()) rects.push_back(n.rect);
  NodeSweep sweep(rects);
  for (i64 x = sweep.next_entry(); x != std::numeric_limits<i64>::max();
       x = sweep.next_entry()) {
    sweep.advance(x);
    // Check each entering rect against its neighbors in y.
    const std::span<const NodeSweep::Entry> active = sweep.active();
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].x0 != x) continue;
      const bool conflict = (i + 1 < active.size() && active[i + 1].y0 <= active[i].y1) ||
                            (i > 0 && active[i - 1].y1 >= active[i].y0);
      if (conflict) {
        rep.violation("nodes: overlapping node rectangles involving node ",
                      layout.nodes()[active[i].node].id);
        if (rep.full()) return;
      }
    }
  }
}

void check_wire_terminals(const Layout& layout, const NodeTable& nodes, Reporter& rep) {
  for (std::size_t w = 0; w < layout.wires().size(); ++w) {
    const Wire& wire = layout.wires()[w];
    if (wire.from_node.has_value()) {
      const Rect* rect = nodes.find(*wire.from_node);
      if (rect == nullptr) {
        rep.violation("terminals: wire ", w, " references unknown from-node ", *wire.from_node);
      } else if (!rect->contains(wire.points.front())) {
        rep.violation("terminals: wire ", w, " start ", point_str(wire.points.front()),
                      " is not on node ", *wire.from_node);
      }
    }
    if (wire.to_node.has_value()) {
      const Rect* rect = nodes.find(*wire.to_node);
      if (rect == nullptr) {
        rep.violation("terminals: wire ", w, " references unknown to-node ", *wire.to_node);
      } else if (!rect->contains(wire.points.back())) {
        rep.violation("terminals: wire ", w, " end ", point_str(wire.points.back()),
                      " is not on node ", *wire.to_node);
      }
    }
    if (rep.full()) return;
  }
}

/// Vias implied by layer changes at bends and by terminal attachment.
/// Terminal vias run from the node surface (layer 1) to the segment layer.
std::vector<Via> extract_vias(const Layout& layout, std::size_t num_segments) {
  // At most two terminal vias per wire and one per bend.
  std::vector<Via> vias;
  vias.reserve(2 * layout.wires().size() + num_segments);
  for (std::size_t w = 0; w < layout.wires().size(); ++w) {
    const Wire& wire = layout.wires()[w];
    const u32 id = wire_index(w);
    if (wire.from_node.has_value()) {
      vias.push_back(Via{wire.points.front(), id, 1, wire.layers.front()});
    }
    if (wire.to_node.has_value()) {
      vias.push_back(Via{wire.points.back(), id, 1, wire.layers.back()});
    }
    for (std::size_t i = 0; i + 1 < wire.layers.size(); ++i) {
      if (wire.layers[i] != wire.layers[i + 1]) {
        vias.push_back(Via{wire.points[i + 1], id, std::min(wire.layers[i], wire.layers[i + 1]),
                           std::max(wire.layers[i], wire.layers[i + 1])});
      }
    }
  }
  return vias;
}

/// The node and terminal checks both models start with, and the segment
/// table of the model.
SegmentTable run_common_checks(const Layout& layout, const NodeTable& nodes, bool by_layer,
                               LegalityReport& report, Reporter& rep) {
  check_nodes_disjoint(layout, rep);
  check_wire_terminals(layout, nodes, rep);
  BFLY_TRACE_SCOPE("legality.extract_segments");
  SegmentTable table(layout, by_layer);
  report.segments_checked = table.size();
  obs::add(obs::get_counter("legality.segments_checked"), report.segments_checked);
  return table;
}

}  // namespace

LegalityReport check_thompson(const Layout& layout, std::size_t max_violations) {
  BFLY_TRACE_SCOPE("legality.thompson");
  LegalityReport report;
  Reporter rep(&report, max_violations);
  const NodeTable nodes(layout);
  // Thompson: layers are implicit (H plane / V plane), one class each.
  const SegmentTable table = run_common_checks(layout, nodes, /*by_layer=*/false, report, rep);
  const std::span<const CheckSeg> hs = table.of(0, Orientation::kHorizontal);
  const std::span<const CheckSeg> vs = table.of(0, Orientation::kVertical);
  {
    BFLY_TRACE_SCOPE("legality.collinear_overlaps");
    check_collinear_overlaps(table, rep, "thompson");
  }
  {
    BFLY_TRACE_SCOPE("legality.crossings");
    check_crossings(hs, vs, /*allow_proper=*/true, rep, "thompson");
  }

  // Node clearance for every segment.  Vertical segments are vertical
  // claims; horizontal ones are checked by the transposed sweep, in which
  // they are vertical.  Each class is sorted by its fixed coordinate, which
  // is the claim's sweep coordinate.
  BFLY_TRACE_SCOPE("legality.node_clearance");
  check_node_clearance(layout, nodes, vs, /*transposed=*/false, rep, "thompson");
  check_node_clearance(layout, nodes, hs, /*transposed=*/true, rep, "thompson(h)");
  return report;
}

LegalityReport check_multilayer(const Layout& layout, std::size_t max_violations) {
  BFLY_TRACE_SCOPE("legality.multilayer");
  LegalityReport report;
  Reporter rep(&report, max_violations);
  const NodeTable nodes(layout);
  const SegmentTable table = run_common_checks(layout, nodes, /*by_layer=*/true, report, rep);
  const int max_layer = table.max_layer();

  // Same-layer collinear overlap.
  {
    BFLY_TRACE_SCOPE("legality.collinear_overlaps");
    check_collinear_overlaps(table, rep, "multilayer");
  }

  // Same-layer crossings: in the 3-D grid model paths must be node-disjoint,
  // so even proper crossings are illegal within a layer.
  {
    BFLY_TRACE_SCOPE("legality.crossings");
    for (int layer = 1; layer <= max_layer; ++layer) {
      check_crossings(table.of(layer, Orientation::kHorizontal),
                      table.of(layer, Orientation::kVertical),
                      /*allow_proper=*/false, rep, "multilayer");
    }
  }

  // Vias: block their (x, y) column across [zlo, zhi].
  std::vector<Via> vias = extract_vias(layout, table.size());
  report.vias_checked = vias.size();
  obs::add(obs::get_counter("legality.vias_checked"), report.vias_checked);
  {
    BFLY_TRACE_SCOPE("legality.vias");
    std::sort(vias.begin(), vias.end(), [](const Via& a, const Via& b) {
      return std::tie(a.p.x, a.p.y, a.zlo) < std::tie(b.p.x, b.p.y, b.zlo);
    });
    for (std::size_t i = 0; i + 1 < vias.size(); ++i) {
      const Via& a = vias[i];
      const Via& b = vias[i + 1];
      if (a.p == b.p && b.zlo <= a.zhi) {
        if (a.wire == b.wire) continue;  // same wire stacking at its own bend
        if (rep.full()) break;
        rep.violation("multilayer: via collision between wires ", a.wire, " and ", b.wire,
                      " at ", point_str(a.p));
      }
    }
    // Via vs same-(x,y) segments on intermediate layers: the vertical
    // segments with the vias in (x, y) order, then the horizontal ones with
    // the vias in (y, x) order, so each class is scanned forward once.
    const auto check_via_layers = [&](std::span<const Via> ordered, Orientation orient) {
      std::vector<CoverScan> scans;
      for (int z = 0; z <= max_layer; ++z) scans.emplace_back(table.of(z, orient));
      const bool horizontal = orient == Orientation::kHorizontal;
      for (const Via& via : ordered) {
        const i64 fixed = horizontal ? via.p.y : via.p.x;
        const i64 along = horizontal ? via.p.x : via.p.y;
        for (int z = via.zlo; z <= via.zhi && !rep.full(); ++z) {
          const CheckSeg* s = scans[static_cast<std::size_t>(z)].covering(fixed, along);
          if (s == nullptr) continue;
          if (s->wire == via.wire) continue;  // a wire may thread its own via
          rep.violation("multilayer: via of wire ", via.wire, " at ", point_str(via.p),
                        " collides with wire ", s->wire, " on layer ", z);
        }
        if (rep.full()) break;
      }
    };
    check_via_layers(vias, Orientation::kVertical);
    std::vector<Via> by_row(vias);
    std::stable_sort(by_row.begin(), by_row.end(),
                     [](const Via& a, const Via& b) { return a.p.y < b.p.y; });
    check_via_layers(by_row, Orientation::kHorizontal);
  }

  // Node clearance on layer 1: vertical layer-1 segments and via feet (z
  // range includes 1) as vertical claims, merged in x order (both inputs
  // are sorted by x), and horizontal layer-1 segments by the transposed
  // sweep.
  BFLY_TRACE_SCOPE("legality.node_clearance");
  const std::span<const CheckSeg> v_segs = table.of(1, Orientation::kVertical);
  std::vector<CheckSeg> feet;
  for (const Via& via : vias) {
    if (via.zlo <= 1 && via.zhi >= 1) feet.push_back({via.p.x, via.p.y, via.p.y, via.wire, 0});
  }
  std::vector<CheckSeg> v_claims(v_segs.size() + feet.size());
  std::merge(v_segs.begin(), v_segs.end(), feet.begin(), feet.end(), v_claims.begin(),
             [](const CheckSeg& a, const CheckSeg& b) { return a.fixed < b.fixed; });
  check_node_clearance(layout, nodes, v_claims, /*transposed=*/false, rep, "multilayer");
  check_node_clearance(layout, nodes, table.of(1, Orientation::kHorizontal),
                       /*transposed=*/true, rep, "multilayer(h)");
  return report;
}

}  // namespace bfly
