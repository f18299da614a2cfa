#include "topology/swap_butterfly.hpp"

namespace bfly {

SwapButterfly::SwapButterfly(std::vector<int> k) : k_(k), isn_(std::move(k)), n_(isn_.dimension()) {
  // Transition s -> s+1 realizes butterfly dimension s, which belongs to the
  // unique level i with n_{i-1} <= s < n_i.
  transition_level_.reserve(static_cast<std::size_t>(n_));
  for (int i = 1; i <= levels(); ++i) {
    for (int s = prefix(i - 1); s < prefix(i); ++s) transition_level_.push_back(i);
  }
  BFLY_CHECK(transition_level_.size() == static_cast<std::size_t>(n_),
             "every transition must belong to some level");
}

u64 SwapButterfly::rho(int stage, u64 row) const {
  BFLY_REQUIRE(stage >= 0 && stage <= n_, "stage out of range");
  BFLY_REQUIRE(row < rows(), "row out of range");
  // Apply sigma_{i(stage)} innermost, then sigma_{i-1}, ..., sigma_2.
  // sigma_i has been applied once the pipeline passed stage n_{i-1} + 1,
  // i.e. for all i >= 2 with prefix(i-1) < stage.
  u64 v = row;
  for (int i = levels(); i >= 2; --i) {
    if (prefix(i - 1) < stage) v = isn_.sigma(i, v);
  }
  return v;
}

std::vector<u64> SwapButterfly::isomorphism_to_butterfly() const {
  const Butterfly target(n_);
  std::vector<u64> map(num_nodes());
  for (int s = 0; s <= n_; ++s) {
    for (u64 v = 0; v < rows(); ++v) {
      map[node_id(v, s)] = target.node_id(rho(s, v), s);
    }
  }
  return map;
}

Graph SwapButterfly::graph() const {
  Graph g(num_nodes());
  g.reserve_edges(num_links());
  for (int s = 0; s < n_; ++s) {
    for (u64 u = 0; u < rows(); ++u) {
      g.add_edge(node_id(u, s), node_id(straight_target(u, s), s + 1));
      g.add_edge(node_id(u, s), node_id(cross_target(u, s), s + 1));
    }
  }
  return g;
}

}  // namespace bfly
