// Depth-k (cluster-based) group key agreement.
//
// The flat GroupSession runs one ring over all n members, so every
// membership event broadcasts over — and rekeys — the whole group. A
// HierarchicalSession shards the group into clusters bounded by
// [min_cluster, max_cluster]; each cluster runs the paper's protocol as an
// independent leaf GroupSession on its own broadcast domain, and the
// cluster heads (first ring member of each cluster) form the tier above.
// That tier is itself a HierarchicalSession over the heads: a single ring
// (one cluster) while the heads fit max_cluster, sharded into
// heads-of-heads clusters beyond that — so a depth-k tree covers
// fan-out^k members with every ring still bounded by max_cluster, and the
// depth follows the head count. The global group key is derived from the
// tier's key with symc::derive_key and pushed downward as one SealedBox
// broadcast per cluster, sealed under that cluster's leaf key — every tier
// repeats the same sealed push for its own key, and plain leaf members
// perform only symmetric decryptions, never an extra exponentiation.
//
// Membership events stay cluster-local: a leave rekeys one leaf ring
// (O(cluster) work) plus the tier path above it, instead of O(n). While a
// tier's own membership is unchanged it re-forms only the rings holding the
// heads of the clusters rekeyed below it, one ring per tier for a single
// leaf event.
// Clusters split when they outgrow max_cluster and are merged into a
// neighbour when they underflow min_cluster, so the bound holds under
// arbitrary churn — at every tier, because each tier applies the same
// rules to its own cluster set. Every membership change goes through one
// update(leavers, joiners) call, the paper's Partition generalised to a set
// of departures and arrivals: all leaf-local changes are applied first and
// the tier rekey + downward distribution run once for the whole set.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/report.h"
#include "gka/session.h"
#include "obs/trace.h"

namespace idgka::cluster {

using mpint::BigInt;

/// Outcome of one hierarchical operation (form, update or merge).
struct EventSummary {
  bool success = false;
  /// Membership events applied in this round.
  std::size_t events_applied = 0;
  /// Leaf clusters that ran a protocol (event, split or merge).
  std::size_t clusters_touched = 0;
  std::size_t splits = 0;
  std::size_t merges = 0;
  /// Rekey epoch after the round (increments once per distribution).
  std::uint64_t epoch = 0;
};

class HierarchicalSession {
 public:
  /// Shards `ids` into clusters of ~config.target_size(). Deterministic
  /// under `seed`. Throws if `ids.size() < 2` or the config is invalid.
  HierarchicalSession(gka::Authority& authority, ClusterConfig config,
                      std::vector<std::uint32_t> ids, std::uint64_t seed);

  /// Runs the initial GKA in every leaf cluster and the head tier, then
  /// distributes the first group key.
  EventSummary form();

  // --- Membership events ---
  /// Departs `leavers`, then enrolls `joiners`, as one rekey round. Throws
  /// before any change when called before form(), when a leaver is not a
  /// member, when fewer than 2 members would remain, when a joiner is
  /// already a member and not also leaving (an id in both lists departs
  /// and re-enrolls with fresh key material) or when a list repeats an id.
  /// Both lists empty is a no-op.
  EventSummary update(const std::vector<std::uint32_t>& leavers,
                      const std::vector<std::uint32_t>& joiners);
  EventSummary join(std::uint32_t id);
  EventSummary leave(std::uint32_t id);
  /// Batch departure (the paper's Partition, generalized across clusters).
  EventSummary partition(const std::vector<std::uint32_t>& leaver_ids);
  /// Adopts every cluster of `other` wholesale (same authority
  /// required), rebuilds the head tier and rekeys. `other` is drained.
  EventSummary merge(HierarchicalSession& other);

  // --- Introspection ---
  /// The authoritative group key (derived from the tier's key).
  [[nodiscard]] const BigInt& group_key() const;
  /// True when every current member's view of the key — decrypted from
  /// its head's rekey broadcast, what it would actually encrypt traffic
  /// with — equals group_key().
  [[nodiscard]] bool all_members_agree() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool contains(std::uint32_t id) const;
  /// Leaf clusters of this tier (nested tiers have their own).
  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }
  /// Number of session tiers: 1 for a single cluster, 2 for leaves under
  /// one head ring, 3+ when heads-of-heads tiers exist.
  [[nodiscard]] std::size_t depth() const;
  /// Member count per tier, leaves first: {n, #heads, #heads-of-heads, ...}.
  [[nodiscard]] std::vector<std::size_t> tier_sizes() const;
  [[nodiscard]] std::vector<std::uint32_t> member_ids() const;
  [[nodiscard]] std::vector<std::size_t> cluster_sizes() const;
  [[nodiscard]] std::vector<std::uint32_t> cluster_heads() const;
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// Rolls up per-member ledgers (leaves + every tier above + retired) and
  /// network counters into one deployment-wide report.
  [[nodiscard]] AggregateReport report() const;

  /// Lifetime ledger of one *current* member: its leaf-cluster ledger, its
  /// tier ledger (live and retired) when it leads or once led a cluster,
  /// plus every tenure of its that was retired along the way (cluster
  /// splits, tier rebuilds, departures before a rejoin) — monotonic over
  /// the node's lifetime, so a battery can integrate it directly. Throws
  /// for unknown ids.
  [[nodiscard]] energy::Ledger member_ledger(std::uint32_t id) const;

  /// Hook applied to every leaf and tier network, current and future (tier
  /// rebuilds, cluster splits, adopted clusters on merge). The
  /// discrete-event driver (src/sim) installs its timed transport this way.
  using NetworkHook = gka::GroupSession::NetworkHook;
  void set_network_hook(NetworkHook hook);

 private:
  /// Shards `ids` as the public constructor does or, for a ring tier, keeps
  /// them in one cluster (the caller keeps that within max_cluster).
  HierarchicalSession(gka::Authority& authority, ClusterConfig config,
                      std::vector<std::uint32_t> ids, std::uint64_t seed, bool one_cluster);

  [[nodiscard]] std::uint64_t next_seed() { return seed_ ^ (0x9e3779b97f4a7c15ULL * ++seed_ctr_); }

  void apply_leaves(const std::vector<std::uint32_t>& leaver_ids, EventSummary& summary);
  void apply_joins(const std::vector<std::uint32_t>& joiner_ids, EventSummary& summary);
  void rebalance(EventSummary& summary);
  void update_head_tier();
  /// Rekey of a tier whose membership is unchanged: re-forms the rings
  /// holding `heads` (heads of clusters rekeyed one tier down), recurses
  /// upward with their heads and re-seals downward. Throws when a head
  /// matches no ring.
  void rekey_rings(const std::vector<std::uint32_t>& heads);
  /// Drops cluster `index` (merged into a neighbour) from clusters_.
  void erase_cluster(std::size_t index);
  void rebuild_head_tier(std::vector<std::uint32_t> heads);
  void retire_member(std::uint32_t id, const energy::Ledger& ledger);
  void rekey_and_distribute();
  /// Folds the tier's complete energy history into the retired ledgers and
  /// destroys it (tier collapse or rebuild).
  void dissolve_head_tier();
  /// Retired energy attributed to `id` at this tier and the tiers above
  /// (zero ledger when none) — lets an enclosing tier account a departed
  /// head's history without reaching into its private ledgers.
  [[nodiscard]] energy::Ledger retired_ledger(std::uint32_t id) const;
  /// Complete per-member energy accounting of this session: every current
  /// member's lifetime ledger plus every departed member's retired tenure,
  /// the tiers above included. Used when this session is dissolved wholesale.
  [[nodiscard]] std::map<std::uint32_t, energy::Ledger> lifetime_ledgers() const;

  gka::Authority& authority_;
  ClusterConfig config_;
  std::uint64_t seed_;
  std::uint64_t seed_ctr_ = 0;

  std::vector<std::unique_ptr<gka::GroupSession>> clusters_;
  /// The tier above: a session among the cluster heads, null while only
  /// one cluster exists (the group key then derives from the single leaf
  /// key). One cluster (a ring) while the heads fit max_cluster, sharded
  /// into heads-of-heads beyond that; crossing the bound rebuilds it.
  std::unique_ptr<HierarchicalSession> head_;
  /// Clusters that ran a protocol since the last update_head_tier(): their
  /// heads are the rings the tier above must re-form.
  std::vector<const gka::GroupSession*> rekeyed_;

  NetworkHook network_hook_;
  std::uint64_t epoch_ = 0;
  BigInt group_key_;
  /// Per-member decrypted view of the group key (tests verify consistency).
  std::map<std::uint32_t, BigInt> member_view_;
  /// Ledgers of departed members and of per-member state retired by cluster
  /// splits / tier rebuilds, per node: report() sums them so it stays a
  /// lifetime total, and member_ledger() stays monotonic across splits /
  /// tier rebuilds / rejoins (battery accounting).
  std::map<std::uint32_t, energy::Ledger> retired_by_member_;
#if IDGKA_OBS
  /// Labeled registry dimensions (`cluster.rekeys{config.label}` etc),
  /// resolved once at construction when config.label is set so the rekey
  /// path pays only a relaxed atomic add per event.
  obs::Counter* labeled_rekeys_ = nullptr;
  obs::Counter* labeled_rekey_retries_ = nullptr;
#endif
};

}  // namespace idgka::cluster
