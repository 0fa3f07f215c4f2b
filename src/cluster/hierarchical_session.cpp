#include "cluster/hierarchical_session.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "gka/exchange.h"
#include "obs/trace.h"
#include "symc/kdf.h"
#include "symc/sealed_box.h"

namespace idgka::cluster {

namespace {

std::uint64_t sealed_blocks(std::size_t bytes) { return bytes / symc::Aes128::kBlockSize; }

void add_traffic(net::TrafficStats& into, const net::TrafficStats& stats) {
  into.tx_messages += stats.tx_messages;
  into.rx_messages += stats.rx_messages;
  into.tx_bits += stats.tx_bits;
  into.rx_bits += stats.rx_bits;
}

}  // namespace

HierarchicalSession::HierarchicalSession(gka::Authority& authority, ClusterConfig config,
                                         std::vector<std::uint32_t> ids, std::uint64_t seed)
    : HierarchicalSession(authority, std::move(config), std::move(ids), seed,
                          /*one_cluster=*/false) {}

HierarchicalSession::HierarchicalSession(gka::Authority& authority, ClusterConfig config,
                                         std::vector<std::uint32_t> ids, std::uint64_t seed,
                                         bool one_cluster)
    : authority_(authority), config_(std::move(config)), seed_(seed) {
  config_.validate();
#if IDGKA_OBS
  if (!config_.label.empty()) {
    obs::Registry& reg = obs::Registry::global();
    labeled_rekeys_ = &reg.counter("cluster.rekeys", config_.label);
    labeled_rekey_retries_ = &reg.counter("cluster.rekey_retries", config_.label);
  }
#endif
  if (ids.size() < 2) {
    throw std::invalid_argument("HierarchicalSession: need at least 2 members");
  }
  {
    std::set<std::uint32_t> unique(ids.begin(), ids.end());
    if (unique.size() != ids.size()) {
      throw std::invalid_argument("HierarchicalSession: duplicate member id");
    }
  }
  // Balanced sharding into k clusters of ~target_size() members each. k is
  // capped so no shard underflows min_cluster and floored so none exceeds
  // max_cluster (a single cluster is exempt from the lower bound). A ring
  // tier keeps every head in one cluster.
  const std::size_t n = ids.size();
  std::size_t k = 1;
  if (!one_cluster) {
    k = (n + config_.target_size() - 1) / config_.target_size();
    k = std::min(k, std::max<std::size_t>(1, n / config_.min_cluster));
    k = std::max(k, (n + config_.max_cluster - 1) / config_.max_cluster);
  }
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  auto it = ids.begin();
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t take = base + (c < extra ? 1 : 0);
    std::vector<std::uint32_t> shard(it, it + static_cast<std::ptrdiff_t>(take));
    it += static_cast<std::ptrdiff_t>(take);
    clusters_.push_back(std::make_unique<gka::GroupSession>(
        authority_, gka::Scheme::kProposed, std::move(shard), next_seed()));
  }
}

EventSummary HierarchicalSession::form() {
  OBS_SPAN_ARG("cluster.form", "cluster", clusters_.size());
  EventSummary summary;
  for (auto& cluster : clusters_) {
    if (!cluster->form().success) return summary;  // success stays false
    rekeyed_.push_back(cluster.get());
    ++summary.clusters_touched;
  }
  update_head_tier();
  rekey_and_distribute();
  summary.success = true;
  summary.epoch = epoch_;
  return summary;
}

EventSummary HierarchicalSession::join(std::uint32_t id) {
  queue_.push({EventType::kJoin, id});
  return flush();
}

EventSummary HierarchicalSession::leave(std::uint32_t id) {
  queue_.push({EventType::kLeave, id});
  return flush();
}

EventSummary HierarchicalSession::partition(const std::vector<std::uint32_t>& leaver_ids) {
  for (const std::uint32_t id : leaver_ids) queue_.push({EventType::kLeave, id});
  return flush();
}

std::optional<EventSummary> HierarchicalSession::enqueue_join(std::uint32_t id) {
  queue_.push({EventType::kJoin, id});
  if (queue_.size() >= config_.batch_capacity) return flush();
  return std::nullopt;
}

std::optional<EventSummary> HierarchicalSession::enqueue_leave(std::uint32_t id) {
  queue_.push({EventType::kLeave, id});
  if (queue_.size() >= config_.batch_capacity) return flush();
  return std::nullopt;
}

EventSummary HierarchicalSession::flush() {
  EventSummary summary;
  summary.success = true;
  summary.epoch = epoch_;
  const std::vector<Event> events = queue_.drain();
  if (events.empty()) return summary;
  OBS_SPAN_ARG("cluster.flush", "cluster", events.size());
  if (group_key_.is_zero()) throw std::logic_error("HierarchicalSession: flush before form()");

  std::vector<std::uint32_t> joins;
  std::vector<std::uint32_t> leaves;
  for (const Event& e : events) {
    (e.type == EventType::kJoin ? joins : leaves).push_back(e.id);
  }
  for (const std::uint32_t id : leaves) {
    if (!contains(id)) throw std::invalid_argument("leave: id not in group");
  }
  if (size() - leaves.size() < 2) {
    throw std::invalid_argument("flush: group would drop below 2 members");
  }
  // Joins must be validated up front too: rejecting one mid-batch (after the
  // leaves were already applied) would abandon the round half-rekeyed.
  for (const std::uint32_t id : joins) {
    const bool departing = std::find(leaves.begin(), leaves.end(), id) != leaves.end();
    if (contains(id) && !departing) throw std::invalid_argument("join: id already in group");
  }
  summary.events_applied = events.size();

  apply_leaves(leaves, summary);
  apply_joins(joins, summary);
  rebalance(summary);
  update_head_tier();
  rekey_and_distribute();
  summary.epoch = epoch_;
  return summary;
}

EventSummary HierarchicalSession::merge(HierarchicalSession& other) {
  OBS_SPAN_ARG("cluster.merge", "cluster", other.size());
  if (&other == this) throw std::invalid_argument("merge: cannot merge with self");
  if (&other.authority_ != &authority_) {
    throw std::invalid_argument("merge: sessions must share the authority");
  }
  if (group_key_.is_zero() || other.group_key_.is_zero()) {
    throw std::logic_error("merge: both sessions must be formed");
  }
  for (const std::uint32_t id : other.member_ids()) {
    if (contains(id)) throw std::invalid_argument("merge: member id present in both groups");
  }
  other.flush();  // settle any pending events on the other side first

  // Adopt the other hierarchy's clusters wholesale — their leaf rings stay
  // intact; only the head tier is renegotiated. Adopted networks switch to
  // this hierarchy's network hook (timed driver, if any).
  for (auto& cluster : other.clusters_) {
    cluster->set_network_hook(network_hook_);
    clusters_.push_back(std::move(cluster));
  }
  other.clusters_.clear();
  if (other.head_) other.dissolve_head_tier();
  for (const auto& [id, ledger] : other.retired_by_member_) retired_by_member_[id] += ledger;
  other.retired_by_member_.clear();
  other.member_view_.clear();
  other.group_key_ = BigInt{};

  EventSummary summary;
  summary.success = true;
  rebalance(summary);
  update_head_tier();
  rekey_and_distribute();
  summary.epoch = epoch_;
  return summary;
}

void HierarchicalSession::apply_leaves(const std::vector<std::uint32_t>& leaver_ids,
                                       EventSummary& summary) {
  if (leaver_ids.empty()) return;
  std::vector<std::vector<std::uint32_t>> per(clusters_.size());
  for (const std::uint32_t id : leaver_ids) {
    const auto home = std::find_if(clusters_.begin(), clusters_.end(),
                                   [&](const auto& cluster) { return cluster->contains(id); });
    if (home == clusters_.end()) throw std::invalid_argument("leave: id not in group");
    per[static_cast<std::size_t>(home - clusters_.begin())].push_back(id);
  }

  // A cluster whose survivors would drop below 2 cannot run Leave/Partition
  // on its own ring; fold it into the neighbour with the most survivors
  // first, then depart from the combined ring.
  for (;;) {
    std::size_t victim = clusters_.size();
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      if (!per[i].empty() && clusters_[i]->size() - per[i].size() < 2) {
        victim = i;
        break;
      }
    }
    if (victim == clusters_.size() || clusters_.size() < 2) break;
    std::size_t target = clusters_.size();
    std::size_t best_survivors = 0;
    for (std::size_t j = 0; j < clusters_.size(); ++j) {
      if (j == victim) continue;
      const std::size_t survivors = clusters_[j]->size() - per[j].size();
      if (target == clusters_.size() || survivors > best_survivors) {
        target = j;
        best_survivors = survivors;
      }
    }
    if (!clusters_[target]->merge(*clusters_[victim]).success) {
      throw std::runtime_error("apply_leaves: cluster merge failed");
    }
    ++summary.merges;
    ++summary.clusters_touched;
    per[target].insert(per[target].end(), per[victim].begin(), per[victim].end());
    erase_cluster(victim);
    per.erase(per.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (per[i].empty()) continue;
    for (const std::uint32_t id : per[i]) {
      retire_member(id, clusters_[i]->ledger(id));
      member_view_.erase(id);
    }
    const gka::RunResult result = per[i].size() == 1 ? clusters_[i]->leave(per[i].front())
                                                     : clusters_[i]->partition(per[i]);
    if (!result.success) throw std::runtime_error("apply_leaves: leaf rekey failed");
    rekeyed_.push_back(clusters_[i].get());
    ++summary.clusters_touched;
  }
}

void HierarchicalSession::apply_joins(const std::vector<std::uint32_t>& joiner_ids,
                                      EventSummary& summary) {
  for (const std::uint32_t id : joiner_ids) {
    if (contains(id)) throw std::invalid_argument("join: id already in group");
    // Smallest cluster takes the newcomer (keeps shards balanced and delays
    // the next split as long as possible).
    std::size_t best = 0;
    for (std::size_t i = 1; i < clusters_.size(); ++i) {
      if (clusters_[i]->size() < clusters_[best]->size()) best = i;
    }
    if (!clusters_[best]->join(id).success) {
      throw std::runtime_error("apply_joins: leaf join failed");
    }
    rekeyed_.push_back(clusters_[best].get());
    ++summary.clusters_touched;
  }
}

void HierarchicalSession::rebalance(EventSummary& summary) {
  // Merge underflowing clusters into the smallest neighbour.
  while (clusters_.size() > 1) {
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < clusters_.size(); ++i) {
      if (clusters_[i]->size() < clusters_[smallest]->size()) smallest = i;
    }
    if (clusters_[smallest]->size() >= config_.min_cluster) break;
    std::size_t target = smallest == 0 ? 1 : 0;
    for (std::size_t j = 0; j < clusters_.size(); ++j) {
      if (j != smallest && clusters_[j]->size() < clusters_[target]->size()) target = j;
    }
    if (!clusters_[target]->merge(*clusters_[smallest]).success) {
      throw std::runtime_error("rebalance: cluster merge failed");
    }
    rekeyed_.push_back(clusters_[target].get());
    erase_cluster(smallest);
    ++summary.merges;
    ++summary.clusters_touched;
  }
  // Split oversized clusters into halves (each half >= min_cluster because
  // max_cluster >= 2 * min_cluster).
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    while (clusters_[i]->size() > config_.max_cluster) {
      const auto ids = clusters_[i]->member_ids();
      const std::vector<std::uint32_t> moved(ids.begin() + static_cast<std::ptrdiff_t>(ids.size() / 2),
                                             ids.end());
      // split() re-forms the moved members from scratch; their per-member
      // ledgers are retired into the lifetime total first.
      for (const std::uint32_t id : moved) retire_member(id, clusters_[i]->ledger(id));
      clusters_.push_back(
          std::make_unique<gka::GroupSession>(clusters_[i]->split(moved, next_seed())));
      rekeyed_.push_back(clusters_[i].get());
      rekeyed_.push_back(clusters_.back().get());
      summary.splits += 1;
      summary.clusters_touched += 2;
    }
  }
}

void HierarchicalSession::erase_cluster(std::size_t index) {
  std::erase(rekeyed_, clusters_[index].get());
  clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(index));
}

void HierarchicalSession::update_head_tier() {
  // Heads of the clusters that ran a protocol this round, in cluster order.
  std::vector<std::uint32_t> rekeyed_heads;
  for (const auto& cluster : clusters_) {
    if (std::find(rekeyed_.begin(), rekeyed_.end(), cluster.get()) != rekeyed_.end()) {
      rekeyed_heads.push_back(cluster->members().front().cred.id);
    }
  }
  rekeyed_.clear();
  if (clusters_.size() < 2) {
    if (head_) dissolve_head_tier();
    return;
  }
  const std::vector<std::uint32_t> desired = cluster_heads();
  const bool ring = desired.size() <= config_.max_cluster;
  if (!head_ || ring != (head_->size() <= config_.max_cluster)) {
    // First build, or the head set crossed max_cluster and the tier shape
    // changes (ring <-> sharded heads-of-heads): renegotiate from scratch.
    rebuild_head_tier(desired);
    return;
  }
  const std::vector<std::uint32_t> current = head_->member_ids();
  const std::set<std::uint32_t> current_set(current.begin(), current.end());
  const std::set<std::uint32_t> desired_set(desired.begin(), desired.end());
  std::vector<std::uint32_t> added;
  std::vector<std::uint32_t> removed;
  for (const std::uint32_t id : desired) {
    if (!current_set.contains(id)) added.push_back(id);
  }
  for (const std::uint32_t id : current) {
    if (!desired_set.contains(id)) removed.push_back(id);
  }
  if (current.size() - removed.size() < 2) {
    // Too few heads survive to run the tier's own Leave/Partition.
    rebuild_head_tier(desired);
    return;
  }
  if (added.empty() && removed.empty()) {
    // Tier membership unchanged, but leaf events happened below: the tier
    // re-forms only the rings holding the heads of the rekeyed clusters, so
    // the epoch key cannot be derived by departed members who still know
    // the old tier key, then does the same one tier up and re-seals
    // downward.
    head_->rekey_rings(rekeyed_heads);
    return;
  }
  // One batched tier round: the tier applies joins + leaves, rebalances its
  // own clusters, recursively updates the tiers above it and re-seals its
  // key downward. Departed heads' tier energy is retired inside the tier
  // (see retired_ledger).
  for (const std::uint32_t id : added) head_->queue_.push({EventType::kJoin, id});
  for (const std::uint32_t id : removed) head_->queue_.push({EventType::kLeave, id});
  head_->flush();
}

void HierarchicalSession::rekey_rings(const std::vector<std::uint32_t>& heads) {
  OBS_SPAN_ARG("cluster.rekey_rings", "cluster", heads.size());
  if (heads.empty()) throw std::logic_error("rekey_rings: no ring below was rekeyed");
  for (const std::uint32_t id : heads) {
    if (!contains(id)) throw std::logic_error("rekey_rings: rekeyed head matches no ring");
  }
  for (auto& cluster : clusters_) {
    if (std::none_of(heads.begin(), heads.end(),
                     [&](std::uint32_t id) { return cluster->contains(id); })) {
      continue;
    }
    if (!cluster->form().success) throw std::runtime_error("rekey_rings: tier rekey failed");
    rekeyed_.push_back(cluster.get());
  }
  update_head_tier();
  rekey_and_distribute();
}

void HierarchicalSession::rebuild_head_tier(std::vector<std::uint32_t> heads) {
  if (head_) dissolve_head_tier();
  const bool ring = heads.size() <= config_.max_cluster;
  // The tier carries no label: tier rekeys are plumbing, not group-level
  // events.
  ClusterConfig tier = config_;
  tier.label.clear();
  head_.reset(new HierarchicalSession(authority_, std::move(tier), std::move(heads), next_seed(),
                                      ring));
  if (network_hook_) head_->set_network_hook(network_hook_);
  if (!head_->form().success) {
    throw std::runtime_error("rebuild_head_tier: tier key agreement failed");
  }
}

void HierarchicalSession::dissolve_head_tier() {
  for (const auto& [id, ledger] : head_->lifetime_ledgers()) retire_member(id, ledger);
  head_.reset();
}

energy::Ledger HierarchicalSession::retired_ledger(std::uint32_t id) const {
  energy::Ledger total;
  const auto it = retired_by_member_.find(id);
  if (it != retired_by_member_.end()) total += it->second;
  if (head_ && !head_->contains(id)) total += head_->retired_ledger(id);
  return total;
}

std::map<std::uint32_t, energy::Ledger> HierarchicalSession::lifetime_ledgers() const {
  std::map<std::uint32_t, energy::Ledger> out;
  const std::vector<std::uint32_t> ids = member_ids();
  const std::set<std::uint32_t> current(ids.begin(), ids.end());
  // Current members: member_ledger already folds leaf + tier (live and
  // retired, every tier above included) + this tier's retired tenures.
  for (const std::uint32_t id : ids) out[id] = member_ledger(id);
  // Departed members: leaf tenures were retired here, tier tenures inside
  // the tier (when one exists) — fold both, skipping ids already fully
  // covered above.
  for (const auto& [id, ledger] : retired_by_member_) {
    if (!current.contains(id)) out[id] += ledger;
  }
  if (head_) {
    for (const auto& [id, ledger] : head_->lifetime_ledgers()) {
      if (!current.contains(id)) out[id] += ledger;
    }
  }
  return out;
}

void HierarchicalSession::retire_member(std::uint32_t id, const energy::Ledger& ledger) {
  retired_by_member_[id] += ledger;
}

void HierarchicalSession::rekey_and_distribute() {
  ++epoch_;
  OBS_SPAN_ARG("cluster.rekey", "cluster", epoch_);
  OBS_COUNT("cluster.rekeys", 1);
#if IDGKA_OBS
  if (labeled_rekeys_ != nullptr) labeled_rekeys_->add(1);
#endif
  const std::string label = "idgka-cluster-v1|epoch|" + std::to_string(epoch_);
  const auto key_bytes =
      symc::derive_key(head_ ? head_->group_key() : clusters_.front()->key(), label);
  group_key_ = BigInt::from_bytes_be(key_bytes);
  member_view_.clear();

  if (!head_) {
    // Single-cluster mode: everyone already holds the leaf key and derives
    // the epoch key locally — no broadcast needed.
    gka::GroupSession& leaf = *clusters_.front();
    for (const std::uint32_t id : leaf.member_ids()) {
      leaf.mutable_ledger(id).record(energy::Op::kHashBlock);
      member_view_[id] = group_key_;
    }
    return;
  }

  for (auto& cluster : clusters_) {
    const std::vector<std::uint32_t> ids = cluster->member_ids();
    const std::uint32_t head = ids.front();
    // The head derives the epoch key from the tier key, seals it under its
    // leaf cluster key and broadcasts it downward; leaf members only run
    // symmetric decryptions.
    cluster->mutable_ledger(head).record(energy::Op::kHashBlock);
    member_view_[head] = group_key_;
    const symc::SealedBox box(cluster->key());
    const std::vector<std::uint8_t> sealed = box.seal(group_key_, head, epoch_);
    cluster->mutable_ledger(head).record(energy::Op::kSymEncBlock, sealed_blocks(sealed.size()));

    net::Message msg;
    msg.sender = head;
    msg.type = "cluster-rekey";
    msg.payload.put_blob("sealed_key", sealed);
    net::Network& network = cluster->mutable_network();
    network.broadcast(msg, ids);
    network.await_delivery();

    const auto receive = [&](std::uint32_t id) {
      for (const net::Message& m : network.drain(id)) {
        if (m.type != "cluster-rekey" || m.sender != head) continue;
        const auto& blob = m.payload.get_blob("sealed_key");
        cluster->mutable_ledger(id).record(energy::Op::kSymDecBlock, sealed_blocks(blob.size()));
        if (const auto opened = box.open(blob, head, epoch_)) {
          member_view_[id] = *opened;
          return true;
        }
      }
      return false;
    };
    std::vector<std::uint32_t> missing;
    for (const std::uint32_t id : ids) {
      if (id != head && !receive(id)) missing.push_back(id);
    }
    // Lossy leaf links may drop the broadcast copy; the head unicasts to
    // the stragglers until everyone holds the epoch key.
    for (int attempt = 0; attempt < gka::kMaxRetransmitAttempts && !missing.empty();
         ++attempt) {
      OBS_COUNT("cluster.rekey_retries", 1);
#if IDGKA_OBS
      if (labeled_rekey_retries_ != nullptr) labeled_rekey_retries_->add(1);
#endif
      OBS_INSTANT_ARG("cluster.rekey_retry", "cluster", missing.size());
      for (const std::uint32_t id : missing) {
        net::Message retry = msg;
        retry.recipient = id;
        network.unicast(std::move(retry));
      }
      network.await_delivery();
      std::vector<std::uint32_t> still_missing;
      for (const std::uint32_t id : missing) {
        if (!receive(id)) still_missing.push_back(id);
      }
      missing.swap(still_missing);
    }
    if (!missing.empty()) {
      throw std::runtime_error("rekey_and_distribute: rekey delivery failed");
    }
    cluster->sync_traffic();
  }
}

const BigInt& HierarchicalSession::group_key() const {
  if (group_key_.is_zero()) throw std::logic_error("HierarchicalSession: no key yet");
  return group_key_;
}

bool HierarchicalSession::all_members_agree() const {
  if (group_key_.is_zero() || member_view_.size() != size()) return false;
  // Look every current member up: a view left under a departed id must not
  // stand in for a member that has none.
  return std::all_of(clusters_.begin(), clusters_.end(), [&](const auto& cluster) {
    const auto& ms = cluster->members();
    return std::all_of(ms.begin(), ms.end(), [&](const gka::MemberCtx& m) {
      const auto it = member_view_.find(m.cred.id);
      return it != member_view_.end() && it->second == group_key_;
    });
  });
}

std::size_t HierarchicalSession::size() const {
  std::size_t n = 0;
  for (const auto& cluster : clusters_) n += cluster->size();
  return n;
}

bool HierarchicalSession::contains(std::uint32_t id) const {
  return std::any_of(clusters_.begin(), clusters_.end(),
                     [&](const auto& cluster) { return cluster->contains(id); });
}

std::vector<std::uint32_t> HierarchicalSession::member_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(size());
  for (const auto& cluster : clusters_) {
    for (const gka::MemberCtx& m : cluster->members()) out.push_back(m.cred.id);
  }
  return out;
}

std::vector<std::size_t> HierarchicalSession::cluster_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(clusters_.size());
  for (const auto& cluster : clusters_) out.push_back(cluster->size());
  return out;
}

std::vector<std::uint32_t> HierarchicalSession::cluster_heads() const {
  std::vector<std::uint32_t> out;
  out.reserve(clusters_.size());
  for (const auto& cluster : clusters_) out.push_back(cluster->members().front().cred.id);
  return out;
}

energy::Ledger HierarchicalSession::member_ledger(std::uint32_t id) const {
  const auto home = std::find_if(clusters_.begin(), clusters_.end(),
                                 [&](const auto& cluster) { return cluster->contains(id); });
  if (home == clusters_.end()) {
    throw std::invalid_argument("HierarchicalSession::member_ledger: unknown id");
  }
  energy::Ledger total = (*home)->ledger(id);
  if (head_) {
    // Tier tenure: the tier's lifetime view when the id is a current head,
    // its retired tenures there when it once was one.
    total += head_->contains(id) ? head_->member_ledger(id) : head_->retired_ledger(id);
  }
  const auto rit = retired_by_member_.find(id);
  if (rit != retired_by_member_.end()) total += rit->second;
  return total;
}

std::size_t HierarchicalSession::depth() const { return head_ ? 1 + head_->depth() : 1; }

std::vector<std::size_t> HierarchicalSession::tier_sizes() const {
  std::vector<std::size_t> out{size()};
  if (head_) {
    const std::vector<std::size_t> above = head_->tier_sizes();
    out.insert(out.end(), above.begin(), above.end());
  }
  return out;
}

void HierarchicalSession::set_network_hook(NetworkHook hook) {
  network_hook_ = std::move(hook);
  for (auto& cluster : clusters_) cluster->set_network_hook(network_hook_);
  if (head_) head_->set_network_hook(network_hook_);
}

AggregateReport HierarchicalSession::report() const {
  AggregateReport rep;
  rep.members = size();
  rep.clusters = clusters_.size();
  for (const auto& [id, ledger] : retired_by_member_) rep.total += ledger;
  for (const auto& cluster : clusters_) {
    for (const gka::MemberCtx& m : cluster->members()) rep.total += m.ledger;
    add_traffic(rep.traffic, cluster->network().total_stats());
  }
  if (head_) {
    // The tier reports recursively: live tier ledgers, its own retired
    // tenures, and every tier network's traffic.
    const AggregateReport tier = head_->report();
    rep.total += tier.total;
    rep.head_tier += tier.total;
    add_traffic(rep.traffic, tier.traffic);
  }
  return rep;
}

}  // namespace idgka::cluster
