// GroupSession — the library's top-level public API.
//
// A session owns a set of enrolled members, a simulated broadcast network
// and a protocol scheme. `form()` runs the initial group key agreement;
// `join/leave/partition/merge` handle membership events — with the paper's
// dynamic protocols under Scheme::kProposed, and by re-executing the full
// GKA (the paper's baseline behaviour) under every other scheme.
//
// Energy: every member accumulates an energy::Ledger (crypto operations +
// paper-accounted radio bits); pair it with a CpuProfile/RadioProfile from
// src/energy to price a trace.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "gka/member.h"
#include "net/network.h"

namespace idgka::gka {

[[nodiscard]] const char* scheme_name(Scheme scheme);

class GroupSession {
 public:
  /// Creates a session over `ids` (becomes the ring order). Members are
  /// enrolled with `authority` for `scheme` only. Deterministic under `seed`.
  GroupSession(Authority& authority, Scheme scheme, std::vector<std::uint32_t> ids,
               std::uint64_t seed);

  /// Sessions are move-only (the network and member DRBGs are unique).
  /// Both move operations are defined and leave the moved-from session
  /// empty-but-destructible; the authority is held by pointer so
  /// move-assignment can rebind it.
  GroupSession(GroupSession&&) = default;
  GroupSession& operator=(GroupSession&&) = default;
  GroupSession(const GroupSession&) = delete;
  GroupSession& operator=(const GroupSession&) = delete;

  /// Runs the initial GKA among the current members.
  RunResult form();
  /// Adds a member (paper Join under kProposed; re-execution otherwise).
  RunResult join(std::uint32_t new_id);
  /// Removes a member (paper Leave / re-execution).
  RunResult leave(std::uint32_t id);
  /// Removes several members at once (paper Partition / re-execution).
  RunResult partition(const std::vector<std::uint32_t>& leaver_ids);
  /// Merges `other` into this session (paper Merge / re-execution). The
  /// other session is drained (becomes empty).
  RunResult merge(GroupSession& other);
  /// Splits `moved_ids` off into a freshly formed session (ring-state hook
  /// for hierarchical clustering): the survivors rekey via partition(), the
  /// moved members run a new GKA among themselves under `seed`. Requires
  /// >= 2 moved members and >= 2 survivors; throws std::runtime_error if
  /// either protocol run fails.
  GroupSession split(const std::vector<std::uint32_t>& moved_ids, std::uint64_t seed);

  [[nodiscard]] Scheme scheme() const { return scheme_; }
  [[nodiscard]] const BigInt& key() const;
  [[nodiscard]] std::vector<std::uint32_t> member_ids() const;
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool contains(std::uint32_t id) const { return find(id) != nullptr; }
  [[nodiscard]] bool has_key() const;

  /// Cumulative per-member energy ledger (ops + radio bits).
  [[nodiscard]] const energy::Ledger& ledger(std::uint32_t id) const;
  /// Mutable ledger access for layers that run extra crypto on behalf of a
  /// member (e.g. the cluster rekey distribution).
  [[nodiscard]] energy::Ledger& mutable_ledger(std::uint32_t id);
  /// Folds network traffic that occurred outside a protocol run (e.g.
  /// cluster-layer broadcasts on this session's network) into the member
  /// ledgers and re-snapshots the counters.
  void sync_traffic() { absorb_traffic(); }
  /// Zeroes all ledgers (e.g. between experiments); the network's
  /// cumulative counters are re-snapshotted, so only later traffic counts.
  void reset_ledgers();

  [[nodiscard]] const net::Network& network() const { return *network_; }
  /// Mutable access for failure-injection and eavesdropping experiments.
  [[nodiscard]] net::Network& mutable_network() { return *network_; }

  /// Hook applied to this session's network immediately and to the network
  /// of any session split() creates, before it carries protocol traffic.
  /// The discrete-event driver (src/sim) uses it to install timed transport
  /// / round-barrier hooks on every network the protocols touch.
  using NetworkHook = std::function<void(net::Network&)>;
  void set_network_hook(NetworkHook hook);

  /// Countermeasure policy for the tau-reuse weakness (README, "Tau reuse"): when
  /// enabled, Leave/Partition refresh every survivor's GQ commitment.
  void set_refresh_all_commitments(bool enabled) { refresh_all_commitments_ = enabled; }
  /// Extension: adds an explicit key-confirmation round to form() under
  /// Scheme::kProposed (see gka/proposed.h).
  void set_key_confirmation(bool enabled) { key_confirmation_ = enabled; }
  [[nodiscard]] const Authority& authority() const { return *authority_; }

  /// Direct member access for tests/benches (ring order).
  [[nodiscard]] const std::vector<MemberCtx>& members() const { return members_; }

 private:
  RunResult reexecute();
  void snapshot_traffic();
  void absorb_traffic();
  MemberCtx* find(std::uint32_t id);
  const MemberCtx* find(std::uint32_t id) const;

  Authority* authority_;  ///< never null; pointer (not reference) so moves rebind
  Scheme scheme_;
  std::uint64_t seed_;
  std::unique_ptr<net::Network> network_;
  std::vector<MemberCtx> members_;  // ring order
  std::map<std::uint32_t, net::TrafficStats> traffic_snapshot_;
  NetworkHook network_hook_;
  bool refresh_all_commitments_ = false;
  bool key_confirmation_ = false;
};

}  // namespace idgka::gka
