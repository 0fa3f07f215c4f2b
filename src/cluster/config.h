// Tuning knobs for the hierarchical (cluster-based) session.
//
// The flat protocol's per-event cost grows with the whole group size n; the
// hierarchical layer bounds every leaf ring to [min_cluster, max_cluster]
// members so membership events stay cluster-local, with only the (much
// smaller) head tier rekeyed globally. max_cluster >= 2 * min_cluster is
// required so a split never immediately produces an underflowing half.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace idgka::cluster {

struct ClusterConfig {
  /// Clusters below this size are merged into a neighbour (when more than
  /// one cluster exists).
  std::size_t min_cluster = 8;
  /// Clusters above this size are split into two halves; a head set above
  /// it becomes a nested tier of its own (heads-of-heads).
  std::size_t max_cluster = 48;
  /// Observability dimension for this session's registry counters: when
  /// non-empty, rekeys and rekey retries are additionally counted as
  /// `cluster.rekeys{label}` / `cluster.rekey_retries{label}`. The sim
  /// runners set this to the scenario (or scenario/group) name so matrix
  /// cells and concurrent groups stay distinguishable in one registry.
  std::string label;

  /// Initial shard size used by form() (midpoint of the bounds).
  [[nodiscard]] std::size_t target_size() const { return (min_cluster + max_cluster) / 2; }

  void validate() const {
    if (min_cluster < 2) throw std::invalid_argument("ClusterConfig: min_cluster < 2");
    if (max_cluster < 2 * min_cluster) {
      throw std::invalid_argument("ClusterConfig: max_cluster must be >= 2 * min_cluster");
    }
  }
};

}  // namespace idgka::cluster
