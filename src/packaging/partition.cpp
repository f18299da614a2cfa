#include "packaging/partition.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bfly {

PartitionStats evaluate_partition(const Graph& graph, const Partition& partition) {
  BFLY_REQUIRE(partition.module_of.size() == graph.num_nodes(),
               "partition must label every node");
  PartitionStats stats;
  stats.num_modules = partition.num_modules;

  std::vector<u64> nodes_per_module(partition.num_modules, 0);
  for (const u64 m : partition.module_of) {
    BFLY_REQUIRE(m < partition.num_modules, "module label out of range");
    ++nodes_per_module[m];
  }
  stats.max_nodes_per_module =
      nodes_per_module.empty() ? 0 : *std::max_element(nodes_per_module.begin(), nodes_per_module.end());
  stats.min_nodes_per_module =
      nodes_per_module.empty() ? 0 : *std::min_element(nodes_per_module.begin(), nodes_per_module.end());

  std::vector<u64> offlinks_per_module(partition.num_modules, 0);
  for (const auto& [a, b] : graph.edges()) {
    const u64 ma = partition.module_of[a];
    const u64 mb = partition.module_of[b];
    if (ma == mb) continue;
    ++stats.total_offmodule_links;
    ++offlinks_per_module[ma];
    ++offlinks_per_module[mb];
  }
  stats.max_offmodule_links_per_module =
      offlinks_per_module.empty()
          ? 0
          : *std::max_element(offlinks_per_module.begin(), offlinks_per_module.end());
  if (graph.num_nodes() > 0) {
    stats.avg_offmodule_links_per_node =
        2.0 * static_cast<double>(stats.total_offmodule_links) /
        static_cast<double>(graph.num_nodes());
  }
  return stats;
}

Partition row_block_partition(const SwapButterfly& sb, int rows_log2) {
  BFLY_REQUIRE(rows_log2 >= 0 && rows_log2 <= sb.dimension(),
               "rows per module must divide the row count");
  Partition p;
  p.num_modules = sb.rows() >> rows_log2;
  p.module_of.resize(sb.num_nodes());
  for (u64 id = 0; id < sb.num_nodes(); ++id) {
    p.module_of[id] = sb.row_of(id) >> rows_log2;
  }
  return p;
}

PartitionStats row_block_stats(const SwapButterfly& sb, int rows_log2) {
  BFLY_REQUIRE(rows_log2 >= 0 && rows_log2 <= sb.dimension(),
               "rows per module must divide the row count");
  PartitionStats stats;
  stats.num_modules = sb.rows() >> rows_log2;
  stats.max_nodes_per_module = pow2(rows_log2) * static_cast<u64>(sb.num_stages());
  stats.min_nodes_per_module = stats.max_nodes_per_module;

  std::vector<u64> offlinks_per_module(stats.num_modules, 0);
  for (int s = 0; s < sb.dimension(); ++s) {
    if (!sb.is_swap_transition(s) &&
        s - sb.prefix(sb.level_of_transition(s) - 1) < rows_log2) {
      continue;
    }
    for (u64 u = 0; u < sb.rows(); ++u) {
      const u64 mu = u >> rows_log2;
      for (const u64 w : {sb.straight_target(u, s), sb.cross_target(u, s)}) {
        const u64 mw = w >> rows_log2;
        if (mu == mw) continue;
        ++stats.total_offmodule_links;
        ++offlinks_per_module[mu];
        ++offlinks_per_module[mw];
      }
    }
  }
  stats.max_offmodule_links_per_module =
      *std::max_element(offlinks_per_module.begin(), offlinks_per_module.end());
  stats.avg_offmodule_links_per_node =
      2.0 * static_cast<double>(stats.total_offmodule_links) /
      static_cast<double>(sb.num_nodes());
  return stats;
}

Partition nucleus_partition(const SwapButterfly& sb) {
  Partition p;
  p.module_of.resize(sb.num_nodes());
  const int l = sb.levels();
  // Per level i: modules are (row >> k_i) groups.  Module ids are laid out
  // level-major.
  std::vector<u64> level_base(static_cast<std::size_t>(l) + 1, 0);
  for (int i = 1; i <= l; ++i) {
    const int ki = sb.group_sizes()[static_cast<std::size_t>(i - 1)];
    level_base[static_cast<std::size_t>(i)] =
        level_base[static_cast<std::size_t>(i - 1)] + (sb.rows() >> ki);
  }
  p.num_modules = level_base[static_cast<std::size_t>(l)];

  for (int s = 0; s <= sb.dimension(); ++s) {
    // Stage s belongs to the level whose exchange phase ends at n_i >= s;
    // boundary stages n_{i-1} stay with level i-1 (their outgoing links are
    // the doubled swap links, which become the off-module links).
    int level = 1;
    while (s > sb.prefix(level)) ++level;
    const int ki = sb.group_sizes()[static_cast<std::size_t>(level - 1)];
    for (u64 u = 0; u < sb.rows(); ++u) {
      p.module_of[sb.node_id(u, s)] =
          level_base[static_cast<std::size_t>(level - 1)] + (u >> ki);
    }
  }
  return p;
}

Partition naive_row_partition(const Butterfly& bf, u64 rows_per_module) {
  BFLY_REQUIRE(rows_per_module >= 1, "rows per module must be positive");
  Partition p;
  p.num_modules = static_cast<u64>(
      ceil_div(static_cast<i64>(bf.rows()), static_cast<i64>(rows_per_module)));
  p.module_of.resize(bf.num_nodes());
  for (u64 id = 0; id < bf.num_nodes(); ++id) {
    p.module_of[id] = bf.row_of(id) / rows_per_module;
  }
  return p;
}

double predicted_offmodule_links_per_node(int l, int k1, int n) {
  const double rows = static_cast<double>(pow2(k1));
  return 4.0 * (l - 1) * (rows - 1) / ((n + 1) * rows);
}

u64 theorem21_max_nodes(int k1) { return pow2(k1) * static_cast<u64>(k1 + 1); }

u64 theorem21_max_offlinks(int k1) { return pow2(k1 + 2); }

std::vector<PackagingLevel> multilevel_packaging(const SwapButterfly& sb) {
  BFLY_TRACE_SCOPE("packaging.multilevel");
  const int n = sb.dimension();
  std::vector<PackagingLevel> out;
  for (int j = 1; j < sb.levels(); ++j) {
    PackagingLevel level;
    level.level = j;
    const int nj = sb.prefix(j);
    level.rows_per_module = pow2(nj);
    level.stats = row_block_stats(sb, nj);
    double sum = 0.0;
    for (int i = j + 1; i <= sb.levels(); ++i) {
      sum += 1.0 - 1.0 / static_cast<double>(
                             pow2(sb.group_sizes()[static_cast<std::size_t>(i - 1)]));
    }
    level.predicted_avg = 4.0 * sum / (n + 1);
    // The paper's Section 5 per-level numbers, exported as gauges.
    const std::string prefix = "packaging.level" + std::to_string(j);
    obs::set(obs::get_gauge(prefix + ".offmodule_links"),
             static_cast<double>(level.stats.max_offmodule_links_per_module));
    obs::set(obs::get_gauge(prefix + ".avg_offmodule_links_per_node"),
             level.stats.avg_offmodule_links_per_node);
    obs::set(obs::get_gauge(prefix + ".num_modules"),
             static_cast<double>(level.stats.num_modules));
    out.push_back(std::move(level));
  }
  return out;
}

u64 max_naive_rows_within_pins(const Butterfly& bf, u64 max_pins) {
  const Graph g = bf.graph();
  u64 best = 0;
  for (u64 q = 1; q <= bf.rows(); ++q) {
    const Partition p = naive_row_partition(bf, q);
    const PartitionStats stats = evaluate_partition(g, p);
    if (stats.max_offmodule_links_per_module <= max_pins) {
      best = q;
    } else if (best > 0) {
      // Off-module pressure grows with q once q exceeds 1; stop at the first
      // failure after a success.
      break;
    }
  }
  return best;
}

}  // namespace bfly
