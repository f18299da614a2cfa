// Swap-butterflies: the ISN-to-butterfly transformation of Section 2.2.
//
// Take the ISN derived from SN(l, Q_k1).  Each swap stage is *bypassed*: the
// swap links are doubled and reconnected through the removed stage to the two
// links (straight and cross over local dim 0) that followed it.  The result
// has n_l + 1 stages of 2^{n_l} rows and is an automorphism (i.e., a relabeled
// copy) of the butterfly B_{n_l}:
//
//   * stage transition s -> s+1 inside level i (local dim j = s - n_{i-1} > 0):
//       straight (u,s)--(u,s+1), cross (u,s)--(u xor 2^j, s+1)
//   * at a level boundary s = n_{i-1} (i >= 2), the transition fuses the
//     level-i swap with the first exchange of level i:
//       straight-kind (u,s)--(sigma_i(u), s+1),
//       cross-kind    (u,s)--(sigma_i(u) xor 1, s+1)
//
// The explicit isomorphism onto B_{n_l} maps (v, s) to (rho_s(v), s) where
// rho_s = sigma_2 o sigma_3 o ... o sigma_{i(s)}  (innermost applied first)
// and i(s) counts the boundaries strictly before stage s.  This class exposes
// the transformation, the row maps rho_s, and the full node mapping, which
// tests verify edge-by-edge against an independently constructed B_{n_l}.
#pragma once

#include <vector>

#include "topology/butterfly.hpp"
#include "topology/graph.hpp"
#include "topology/isn.hpp"

namespace bfly {

class SwapButterfly {
 public:
  explicit SwapButterfly(std::vector<int> k);

  int levels() const { return static_cast<int>(k_.size()); }
  int dimension() const { return n_; }
  u64 rows() const { return pow2(n_); }
  int num_stages() const { return n_ + 1; }
  u64 num_nodes() const { return rows() * static_cast<u64>(num_stages()); }
  u64 num_links() const { return static_cast<u64>(n_) * rows() * 2; }
  const std::vector<int>& group_sizes() const { return k_; }
  int prefix(int i) const { return isn_.prefix(i); }
  const IndirectSwapNetwork& isn() const { return isn_; }

  u64 node_id(u64 row, int stage) const {
    BFLY_REQUIRE(row < rows() && stage >= 0 && stage <= n_, "swap-butterfly node out of range");
    return static_cast<u64>(stage) * rows() + row;
  }
  u64 row_of(u64 id) const { return id % rows(); }
  int stage_of(u64 id) const { return static_cast<int>(id / rows()); }

  /// The level whose exchange phase realizes transition s -> s+1 (s in [0,n)).
  int level_of_transition(int s) const {
    BFLY_REQUIRE(s >= 0 && s < n_, "stage transition out of range");
    return transition_level_[static_cast<std::size_t>(s)];
  }

  /// True iff transition s -> s+1 crosses a level boundary, i.e. its links
  /// are doubled swap links of the underlying ISN (these are exactly the
  /// inter-module links of the packaging scheme of Section 2.3).
  bool is_swap_transition(int s) const { return level_of_transition(s) >= 2 && s == prefix(level_of_transition(s) - 1); }

  /// Targets in stage s+1 of the two links leaving (row, s).
  u64 straight_target(u64 row, int s) const {
    BFLY_REQUIRE(row < rows(), "row out of range");
    const int i = level_of_transition(s);
    if (i >= 2 && s == prefix(i - 1)) {
      // Level boundary: the (doubled) swap link reconnected through the
      // bypassed stage to the straight link of the first level-i exchange.
      return isn_.sigma(i, row);
    }
    return row;
  }
  u64 cross_target(u64 row, int s) const {
    BFLY_REQUIRE(row < rows(), "row out of range");
    const int i = level_of_transition(s);
    if (i >= 2 && s == prefix(i - 1)) return isn_.sigma(i, row) ^ 1;
    const int j = s - prefix(i - 1);  // local dimension within level i
    return row ^ pow2(j);
  }

  /// Row map rho_s realizing the isomorphism onto B_{n_l} at stage s.
  u64 rho(int stage, u64 row) const;

  /// Full node mapping onto an identically-sized Butterfly(n_l):
  /// result[node_id(v, s)] = Butterfly::node_id(rho_s(v), s).
  std::vector<u64> isomorphism_to_butterfly() const;

  Graph graph() const;

 private:
  std::vector<int> k_;
  IndirectSwapNetwork isn_;
  int n_;
  std::vector<int> transition_level_;  ///< level_of_transition, per s
};

}  // namespace bfly
