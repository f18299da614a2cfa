// Wires: rectilinear polylines with a wiring layer per segment.
//
// Layer 0 is the active layer (network nodes); wire segments run on layers
// 1..L.  A wire's endpoints attach to nodes: the checker inserts implicit
// vertical (z-direction) vias from the node surface (layer 0) up to the
// first/last segment's layer, and between consecutive segments on different
// layers.  Under the Thompson model the layers are interpreted as the
// conventional two-layer H/V discipline.
//
// Two representations: `Wire` owns its vectors and is what a Layout stores;
// `InlineWire` holds at most kMaxWirePoints points in place.  WireBuilder
// builds into an InlineWire, and the layout plans stream their wires as
// InlineWires to a WireSink, so streaming a layout (metrics, per-link
// lengths) allocates nothing per wire; only materializing copies each wire
// into a Wire, with one allocation per vector.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "layout/geometry.hpp"
#include "util/function_ref.hpp"

namespace bfly {

/// Length in grid edges (x-y only; z vias are not counted, matching the
/// paper's wire-length accounting) of an axis-parallel polyline.
inline i64 polyline_length(std::span<const Point> points) {
  i64 total = 0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    total += std::abs(points[i + 1].x - points[i].x) + std::abs(points[i + 1].y - points[i].y);
  }
  return total;
}

/// Bounding box of a polyline (empty for no points).
inline Rect polyline_bbox(std::span<const Point> points) {
  if (points.empty()) return Rect{};
  Rect r{points[0].x, points[0].y, points[0].x, points[0].y};
  for (const Point p : points) {
    r.x0 = std::min(r.x0, p.x);
    r.y0 = std::min(r.y0, p.y);
    r.x1 = std::max(r.x1, p.x);
    r.y1 = std::max(r.y1, p.y);
  }
  return r;
}

struct Wire {
  /// Polyline vertices; size >= 2.  Consecutive points differ in exactly one
  /// coordinate (axis-parallel segments of nonzero length).
  std::vector<Point> points;
  /// layers[i] is the wiring layer of segment points[i] -> points[i+1].
  std::vector<int> layers;
  /// Node ids the endpoints attach to (checked against node rects).
  std::optional<u64> from_node;
  std::optional<u64> to_node;

  std::size_t num_segments() const { return layers.size(); }

  /// Wire length in grid edges (see polyline_length).
  i64 length() const { return polyline_length(points); }

  /// Bounding box of the polyline.
  Rect bbox() const { return polyline_bbox(points); }
};

/// Most points a WireBuilder holds: the longest route of the library, the
/// butterfly layout's level-3 swap wire, has 8 points (7 segments).
inline constexpr std::size_t kMaxWirePoints = 8;

/// A wire of at most kMaxWirePoints points held in place (no heap).
struct InlineWire {
  std::array<Point, kMaxWirePoints> point_buf;
  std::array<int, kMaxWirePoints - 1> layer_buf{};
  std::size_t num_points = 0;
  std::optional<u64> from_node;
  std::optional<u64> to_node;

  std::span<const Point> points() const { return {point_buf.data(), num_points}; }
  std::span<const int> layers() const { return {layer_buf.data(), num_points - 1}; }
  i64 length() const { return polyline_length(points()); }
  Rect bbox() const { return polyline_bbox(points()); }

  /// The owning copy: one allocation for each of its two vectors.
  Wire to_wire() const {
    Wire w;
    w.points.assign(points().begin(), points().end());
    w.layers.assign(layers().begin(), layers().end());
    w.from_node = from_node;
    w.to_node = to_node;
    return w;
  }
};

/// The callback the layout plans stream their wires to.
using WireSink = FunctionRef<void(const InlineWire&)>;

/// Builder for the common up-over-down channel route patterns.
class WireBuilder {
 public:
  explicit WireBuilder(Point start) {
    wire_.point_buf[0] = start;
    wire_.num_points = 1;
  }

  /// Extends the wire to (x, current y) on `layer`; no-op when already there.
  WireBuilder& to_x(i64 x, int layer) {
    const Point last = wire_.point_buf[wire_.num_points - 1];
    if (x != last.x) add({x, last.y}, layer);
    return *this;
  }
  /// Extends the wire to (current x, y) on `layer`; no-op when already there.
  WireBuilder& to_y(i64 y, int layer) {
    const Point last = wire_.point_buf[wire_.num_points - 1];
    if (y != last.y) add({last.x, y}, layer);
    return *this;
  }

  WireBuilder& from(u64 node) {
    wire_.from_node = node;
    return *this;
  }
  WireBuilder& to(u64 node) {
    wire_.to_node = node;
    return *this;
  }

  /// The wire built so far, in place; valid while the builder lives.
  const InlineWire& wire() const {
    BFLY_REQUIRE(wire_.num_points >= 2, "wire must have at least one segment");
    return wire_;
  }
  /// An owning copy of wire().
  Wire build() const { return wire().to_wire(); }

 private:
  void add(Point p, int layer) {
    BFLY_REQUIRE(layer >= 1, "wire segments must run on layers >= 1");
    BFLY_CHECK(wire_.num_points < kMaxWirePoints, "wire exceeds the inline polyline capacity");
    wire_.layer_buf[wire_.num_points - 1] = layer;
    wire_.point_buf[wire_.num_points++] = p;
  }

  InlineWire wire_;
};

}  // namespace bfly
