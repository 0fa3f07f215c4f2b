#include "gka/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gka/bd_signed.h"
#include "gka/dynamic.h"
#include "gka/proposed.h"
#include "gka/ssn.h"

namespace idgka::gka {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kProposed:
      return "Proposed (BD + GQ batch)";
    case Scheme::kBdSok:
      return "BD + SOK";
    case Scheme::kBdEcdsa:
      return "BD + ECDSA";
    case Scheme::kBdDsa:
      return "BD + DSA";
    case Scheme::kSsn:
      return "SSN";
  }
  return "?";
}

GroupSession::GroupSession(Authority& authority, Scheme scheme,
                           std::vector<std::uint32_t> ids, std::uint64_t seed)
    : authority_(&authority),
      scheme_(scheme),
      seed_(seed),
      network_(std::make_unique<net::Network>()) {
  if (ids.size() < 2) throw std::invalid_argument("GroupSession: need at least 2 members");
  members_.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    members_.push_back(make_member(authority_->enroll(id, scheme_), seed_));
    network_->add_node(id);
  }
  snapshot_traffic();
}

const MemberCtx* GroupSession::find(std::uint32_t id) const {
  for (const MemberCtx& m : members_) {
    if (m.cred.id == id) return &m;
  }
  return nullptr;
}

MemberCtx* GroupSession::find(std::uint32_t id) {
  return const_cast<MemberCtx*>(std::as_const(*this).find(id));
}

void GroupSession::snapshot_traffic() {
  traffic_snapshot_.clear();
  for (const MemberCtx& m : members_) {
    if (network_->has_node(m.cred.id)) {
      traffic_snapshot_[m.cred.id] = network_->stats(m.cred.id);
    }
  }
}

void GroupSession::absorb_traffic() {
  for (MemberCtx& m : members_) {
    if (!network_->has_node(m.cred.id)) continue;
    const net::TrafficStats now = network_->stats(m.cred.id);
    const net::TrafficStats before = traffic_snapshot_.contains(m.cred.id)
                                         ? traffic_snapshot_.at(m.cred.id)
                                         : net::TrafficStats{};
    m.ledger.tx_bits += now.tx_bits - before.tx_bits;
    m.ledger.rx_bits += now.rx_bits - before.rx_bits;
    m.ledger.tx_messages += now.tx_messages - before.tx_messages;
    m.ledger.rx_messages += now.rx_messages - before.rx_messages;
  }
  snapshot_traffic();
}

RunResult GroupSession::form() {
  snapshot_traffic();
  RunResult result;
  switch (scheme_) {
    case Scheme::kProposed:
      result = run_proposed(authority_->params(), members_, *network_,
                            ProposedOptions{key_confirmation_});
      break;
    case Scheme::kBdSok:
      result = run_bd_signed(*authority_, BdAuth::kSok, members_, *network_);
      break;
    case Scheme::kBdEcdsa:
      result = run_bd_signed(*authority_, BdAuth::kEcdsa, members_, *network_);
      break;
    case Scheme::kBdDsa:
      result = run_bd_signed(*authority_, BdAuth::kDsa, members_, *network_);
      break;
    case Scheme::kSsn:
      result = run_ssn(authority_->params(), members_, *network_);
      break;
  }
  absorb_traffic();
  return result;
}

RunResult GroupSession::reexecute() { return form(); }

RunResult GroupSession::join(std::uint32_t new_id) {
  if (find(new_id) != nullptr) throw std::invalid_argument("join: id already in group");
  MemberCtx joiner = make_member(authority_->enroll(new_id, scheme_), seed_);
  network_->add_node(new_id);

  if (scheme_ != Scheme::kProposed) {
    members_.push_back(std::move(joiner));
    return reexecute();
  }

  snapshot_traffic();
  RunResult result = run_join(authority_->params(), members_, joiner, *network_);
  members_.push_back(std::move(joiner));
  absorb_traffic();
  if (!result.success) members_.back().key = BigInt{};
  return result;
}

RunResult GroupSession::leave(std::uint32_t id) {
  if (find(id) == nullptr) throw std::invalid_argument("leave: id not in group");
  if (members_.size() < 3) throw std::invalid_argument("leave: group would drop below 2");

  if (scheme_ != Scheme::kProposed) {
    std::erase_if(members_, [&](const MemberCtx& m) { return m.cred.id == id; });
    network_->remove_node(id);
    for (MemberCtx& m : members_) {
      m.ring.clear();  // ring rebuilt by re-execution
    }
    return reexecute();
  }

  snapshot_traffic();
  RunResult result = run_leave(authority_->params(), members_, id, *network_,
                               refresh_all_commitments_);
  absorb_traffic();
  if (result.success) {
    std::erase_if(members_, [&](const MemberCtx& m) { return m.cred.id == id; });
    network_->remove_node(id);
  }
  return result;
}

RunResult GroupSession::partition(const std::vector<std::uint32_t>& leaver_ids) {
  for (const std::uint32_t id : leaver_ids) {
    if (find(id) == nullptr) throw std::invalid_argument("partition: id not in group");
  }
  if (members_.size() < leaver_ids.size() + 2) {
    throw std::invalid_argument("partition: group would drop below 2");
  }

  if (scheme_ != Scheme::kProposed) {
    std::erase_if(members_, [&](const MemberCtx& m) {
      return std::find(leaver_ids.begin(), leaver_ids.end(), m.cred.id) != leaver_ids.end();
    });
    for (const std::uint32_t id : leaver_ids) network_->remove_node(id);
    for (MemberCtx& m : members_) m.ring.clear();
    return reexecute();
  }

  snapshot_traffic();
  RunResult result = run_partition(authority_->params(), members_, leaver_ids,
                                   *network_, refresh_all_commitments_);
  absorb_traffic();
  if (result.success) {
    std::erase_if(members_, [&](const MemberCtx& m) {
      return std::find(leaver_ids.begin(), leaver_ids.end(), m.cred.id) != leaver_ids.end();
    });
    for (const std::uint32_t id : leaver_ids) network_->remove_node(id);
  }
  return result;
}

RunResult GroupSession::merge(GroupSession& other) {
  if (&other == this) throw std::invalid_argument("merge: cannot merge with self");
  if (other.scheme_ != scheme_ || other.authority_ != authority_) {
    throw std::invalid_argument("merge: sessions must share scheme and authority");
  }
  for (const MemberCtx& m : other.members_) {
    if (find(m.cred.id) != nullptr) {
      throw std::invalid_argument("merge: member id present in both groups");
    }
  }
  // Move the other session's members onto this network; their old inboxes
  // and counters (already absorbed into ledgers) are dropped.
  other.absorb_traffic();
  for (MemberCtx& m : other.members_) {
    network_->add_node(m.cred.id);
    other.network_->remove_node(m.cred.id);
  }

  if (scheme_ != Scheme::kProposed) {
    for (MemberCtx& m : other.members_) {
      m.ring.clear();
      members_.push_back(std::move(m));
    }
    other.members_.clear();
    for (MemberCtx& m : members_) m.ring.clear();
    return reexecute();
  }

  snapshot_traffic();
  for (const MemberCtx& m : other.members_) {
    traffic_snapshot_[m.cred.id] = network_->stats(m.cred.id);
  }
  RunResult result =
      run_merge(authority_->params(), members_, other.members_, *network_);
  for (MemberCtx& m : other.members_) members_.push_back(std::move(m));
  other.members_.clear();
  absorb_traffic();
  return result;
}

void GroupSession::set_network_hook(NetworkHook hook) {
  network_hook_ = std::move(hook);
  if (network_hook_) network_hook_(*network_);
}

GroupSession GroupSession::split(const std::vector<std::uint32_t>& moved_ids,
                                 std::uint64_t seed) {
  if (moved_ids.size() < 2) throw std::invalid_argument("split: need >= 2 moved members");
  GroupSession offshoot(*authority_, scheme_, moved_ids, seed);
  if (network_hook_) offshoot.set_network_hook(network_hook_);
  if (!partition(moved_ids).success) {
    throw std::runtime_error("split: survivor rekey failed");
  }
  if (!offshoot.form().success) {
    throw std::runtime_error("split: offshoot key agreement failed");
  }
  return offshoot;
}

const BigInt& GroupSession::key() const {
  if (members_.empty()) throw std::logic_error("GroupSession: no members");
  return members_.front().key;
}

bool GroupSession::has_key() const {
  return !members_.empty() && !members_.front().key.is_zero();
}

std::vector<std::uint32_t> GroupSession::member_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(members_.size());
  for (const MemberCtx& m : members_) ids.push_back(m.cred.id);
  return ids;
}

const energy::Ledger& GroupSession::ledger(std::uint32_t id) const {
  const MemberCtx* m = find(id);
  if (m == nullptr) throw std::invalid_argument("GroupSession::ledger: unknown id");
  return m->ledger;
}

energy::Ledger& GroupSession::mutable_ledger(std::uint32_t id) {
  MemberCtx* m = find(id);
  if (m == nullptr) throw std::invalid_argument("GroupSession::mutable_ledger: unknown id");
  return m->ledger;
}

void GroupSession::reset_ledgers() {
  for (MemberCtx& m : members_) m.ledger = energy::Ledger{};
  snapshot_traffic();
}

}  // namespace idgka::gka
