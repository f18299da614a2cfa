// The Layout container: placed nodes + routed wires + measured metrics.
//
// Metrics are *measured from the constructed geometry* (bounding boxes and
// polyline lengths), never recomputed from the paper's closed forms; the
// benches compare these measurements against the closed forms.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "layout/geometry.hpp"
#include "layout/wire.hpp"

namespace bfly {

struct PlacedNode {
  u64 id = 0;
  Rect rect;
};

struct LayoutMetrics {
  i64 width = 0;            ///< grid columns of the bounding rectangle
  i64 height = 0;           ///< grid rows of the bounding rectangle
  i64 area = 0;             ///< width * height
  i64 max_wire_length = 0;  ///< longest wire (grid edges, x-y only)
  i64 total_wire_length = 0;
  int num_layers = 0;  ///< highest wiring layer used
  i64 volume = 0;      ///< num_layers * area (multilayer grid model)
  u64 num_nodes = 0;
  u64 num_wires = 0;
};

/// The callback the layout plans stream their node rectangles to.
using NodeSink = FunctionRef<void(u64, Rect)>;

/// Folds streamed nodes and wires into LayoutMetrics one at a time: the
/// streamed metrics() of every plan.  Layout::metrics() computes the same
/// quantities on its own from the stored geometry, and the tests hold the
/// two equal.
class MetricsAccumulator {
 public:
  void add_node(const Rect& rect) {
    box_ = box_.united(rect);
    ++m_.num_nodes;
  }

  void add_wire(const InlineWire& wire) {
    box_ = box_.united(wire.bbox());
    const i64 length = wire.length();
    m_.max_wire_length = std::max(m_.max_wire_length, length);
    m_.total_wire_length += length;
    for (const int layer : wire.layers()) m_.num_layers = std::max(m_.num_layers, layer);
    ++m_.num_wires;
  }

  LayoutMetrics finish() const {
    LayoutMetrics m = m_;
    m.width = box_.width();
    m.height = box_.height();
    m.area = m.width * m.height;
    m.volume = static_cast<i64>(m.num_layers) * m.area;
    return m;
  }

 private:
  Rect box_;
  LayoutMetrics m_;
};

class Layout {
 public:
  Layout() = default;

  /// Reserves room for `nodes` nodes and `wires` wires.
  void reserve(u64 nodes, u64 wires);
  /// Places a node; ids must be unique.
  void add_node(u64 id, Rect rect);
  /// Adds a routed wire (validated for rectilinearity on insertion).
  void add_wire(Wire wire);

  const std::vector<PlacedNode>& nodes() const { return nodes_; }
  const std::vector<Wire>& wires() const { return wires_; }
  bool has_node(u64 id) const { return node_index_.contains(id); }
  const PlacedNode& node(u64 id) const;

  Rect bounding_box() const;
  LayoutMetrics metrics() const;

 private:
  std::vector<PlacedNode> nodes_;
  std::vector<Wire> wires_;
  std::unordered_map<u64, std::size_t> node_index_;
};

}  // namespace bfly
