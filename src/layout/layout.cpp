#include "layout/layout.hpp"

#include <algorithm>

namespace bfly {

void Layout::reserve(u64 nodes, u64 wires) {
  nodes_.reserve(nodes);
  node_index_.reserve(nodes);
  wires_.reserve(wires);
}

void Layout::add_node(u64 id, Rect rect) {
  BFLY_REQUIRE(!rect.empty(), "node rectangle must be non-empty");
  BFLY_REQUIRE(!node_index_.contains(id), "duplicate node id");
  node_index_.emplace(id, nodes_.size());
  nodes_.push_back(PlacedNode{id, rect});
}

void Layout::add_wire(Wire wire) {
  BFLY_REQUIRE(wire.points.size() >= 2, "wire must have at least one segment");
  BFLY_REQUIRE(wire.layers.size() + 1 == wire.points.size(),
               "wire must carry one layer per segment");
  for (std::size_t i = 0; i + 1 < wire.points.size(); ++i) {
    const Point& a = wire.points[i];
    const Point& b = wire.points[i + 1];
    BFLY_REQUIRE((a.x == b.x) != (a.y == b.y),
                 "wire segments must be axis-parallel and of nonzero length");
    BFLY_REQUIRE(wire.layers[i] >= 1, "wire segments must run on layers >= 1");
  }
  wires_.push_back(std::move(wire));
}

const PlacedNode& Layout::node(u64 id) const {
  const auto it = node_index_.find(id);
  BFLY_REQUIRE(it != node_index_.end(), "unknown node id");
  return nodes_[it->second];
}

Rect Layout::bounding_box() const {
  Rect box;
  for (const PlacedNode& n : nodes_) box = box.united(n.rect);
  for (const Wire& w : wires_) box = box.united(w.bbox());
  return box;
}

LayoutMetrics Layout::metrics() const {
  LayoutMetrics m;
  const Rect box = bounding_box();
  m.width = box.width();
  m.height = box.height();
  m.area = m.width * m.height;
  m.num_nodes = nodes_.size();
  m.num_wires = wires_.size();
  for (const Wire& w : wires_) {
    const i64 len = w.length();
    m.max_wire_length = std::max(m.max_wire_length, len);
    m.total_wire_length += len;
    for (const int layer : w.layers) m.num_layers = std::max(m.num_layers, layer);
  }
  m.volume = static_cast<i64>(m.num_layers) * m.area;
  return m;
}

}  // namespace bfly
