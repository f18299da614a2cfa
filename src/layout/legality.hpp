// Machine-checked layout legality.
//
// Two rule sets, matching the paper's two models:
//
// * Thompson model (Sec. 3.1): layers are ignored; horizontal and vertical
//   segments form the two implicit wiring layers.  Different wires may not
//   share a point with the same orientation (no overlaps), may cross only
//   properly (interior-to-interior; a shared endpoint would be a knock-knee
//   or an overlapped via), and no segment may enter a node square except for
//   a wire touching its own terminal node at exactly its endpoint.
//
// * Multilayer 2-D grid model (Sec. 4.1): wires are 3-D grid paths that must
//   be node- and edge-disjoint.  Segments carry explicit layers (1..L);
//   z-direction vias are implied at layer changes (bends) and at terminals
//   (from the node surface on layer 1 to the first/last segment's layer).
//   Different wires may not share any 3-D grid point: same-layer segments may
//   neither overlap nor cross, vias block their full z-range at their (x, y),
//   and network nodes occupy their rectangle on layer 1.
//
// The checkers are exact (no sampling).  Both extract every segment once
// into a flat table, bucketed by class (orientation, and layer in the
// multilayer model) and sorted by line and position; the collinear, crossing,
// via and node-clearance passes all read that table, so a check costs a few
// sorts and linear scans, O(S log S) for S segments.  The node sweeps keep
// their active rectangles in a flat array sorted by y, merged where nodes
// enter and filtered where they leave.
#pragma once

#include <string>
#include <vector>

#include "layout/layout.hpp"

namespace bfly {

struct LegalityReport {
  bool ok = true;
  /// Human-readable descriptions of violations (capped at `max_violations`).
  std::vector<std::string> violations;
  u64 segments_checked = 0;
  u64 vias_checked = 0;

  explicit operator bool() const { return ok; }
  std::string summary() const;
};

/// Thompson-model check (2 implicit layers).
LegalityReport check_thompson(const Layout& layout, std::size_t max_violations = 8);

/// Multilayer 2-D grid model check (explicit layers, implied vias).
LegalityReport check_multilayer(const Layout& layout, std::size_t max_violations = 8);

}  // namespace bfly
