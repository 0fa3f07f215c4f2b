// Hierarchical cluster-based GKA: key consistency under churn at large n,
// cluster-size invariants, batched updates, and the aggregate roll-up.
//
// Correctness anchor: after every operation *every* current member's
// decrypted view of the group key (received via its head's SealedBox rekey
// broadcast, or derived locally in single-cluster mode) equals the
// authoritative key derived from the head-tier ring.
#include <gtest/gtest.h>

#include <set>

#include "cluster/hierarchical_session.h"
#include "sim/driver.h"

namespace idgka::cluster {
namespace {

gka::Authority& tiny_authority() {
  static gka::Authority authority(gka::SecurityProfile::kTiny, /*seed=*/424242);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 1000) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

void expect_consistent(const HierarchicalSession& session, const char* what) {
  ASSERT_TRUE(session.all_members_agree()) << what;
}

void expect_bounds(const HierarchicalSession& session, const char* what) {
  const auto sizes = session.cluster_sizes();
  for (const std::size_t s : sizes) {
    EXPECT_LE(s, session.config().max_cluster) << what;
    if (sizes.size() > 1) EXPECT_GE(s, 2U) << what;
  }
}

TEST(Config, ValidatesBounds) {
  gka::Authority& authority = tiny_authority();
  ClusterConfig bad;
  bad.min_cluster = 8;
  bad.max_cluster = 12;  // < 2 * min: a split could underflow
  EXPECT_THROW(HierarchicalSession(authority, bad, make_ids(20), 1), std::invalid_argument);
  ClusterConfig ok;
  EXPECT_THROW(HierarchicalSession(authority, ok, {7}, 1), std::invalid_argument);
  EXPECT_THROW(HierarchicalSession(authority, ok, {7, 7, 8}, 1), std::invalid_argument);
}

TEST(Form, SingleClusterMode) {
  // Below min-split sizes the hierarchy degenerates to one leaf ring and the
  // epoch key is derived locally by every member — no head tier, no rekey
  // broadcast.
  HierarchicalSession session(tiny_authority(), ClusterConfig{}, make_ids(6), 2);
  ASSERT_TRUE(session.form().success);
  EXPECT_EQ(session.cluster_count(), 1U);
  expect_consistent(session, "single-cluster form");

  ASSERT_TRUE(session.join(2000).success);
  ASSERT_TRUE(session.leave(1002).success);
  expect_consistent(session, "single-cluster churn");
}

TEST(Form, ShardingRespectsMinClusterBound) {
  // n barely above min_cluster must not be cut into underflowing shards.
  ClusterConfig cfg;
  cfg.min_cluster = 20;
  cfg.max_cluster = 40;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(31, 900000), 20);
  ASSERT_TRUE(session.form().success);
  EXPECT_EQ(session.cluster_count(), 1U);  // 31 fits one <=40 cluster
  HierarchicalSession wide(tiny_authority(), cfg, make_ids(100, 910000), 21);
  ASSERT_TRUE(wide.form().success);
  for (const std::size_t s : wide.cluster_sizes()) {
    EXPECT_GE(s, cfg.min_cluster);
    EXPECT_LE(s, cfg.max_cluster);
  }
}

TEST(Form, ShardsIntoBoundedClusters) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 16;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(64), 3);
  ASSERT_TRUE(session.form().success);
  EXPECT_GT(session.cluster_count(), 1U);
  expect_bounds(session, "form");
  expect_consistent(session, "form n=64");
  EXPECT_EQ(session.size(), 64U);
  // The epoch key is a KDF output, not a ring element of the head tier.
  EXPECT_LE(session.group_key().bit_length(), 128U);
}

TEST(Rekey, KeyFreshnessAcrossEvents) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(24), 4);
  ASSERT_TRUE(session.form().success);
  std::set<std::string> keys;
  keys.insert(session.group_key().to_hex());
  ASSERT_TRUE(session.join(3000).success);
  keys.insert(session.group_key().to_hex());
  ASSERT_TRUE(session.leave(1003).success);
  keys.insert(session.group_key().to_hex());
  ASSERT_TRUE(session.partition({1010, 1011}).success);
  keys.insert(session.group_key().to_hex());
  EXPECT_EQ(keys.size(), 4U);  // every event produced a fresh epoch key
  EXPECT_EQ(session.epoch(), 4U);
}

TEST(Rekey, LeafMembersDoNoExtraExponentiations) {
  // The downward distribution must cost leaf members only symmetric work:
  // an event in one cluster adds zero mod-exps to members of other clusters.
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(32), 5);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.cluster_count(), 3U);

  // An event in the first cluster must rekey only that cluster and the head
  // tier; the whole-group mod-exp growth stays far below what a flat rekey
  // over all n members would cost.
  const std::uint32_t leaver = 1001;  // lives in the first cluster
  const std::uint64_t exps_before = session.report().total.count(energy::Op::kModExp);
  ASSERT_TRUE(session.leave(leaver).success);
  expect_consistent(session, "after leave");
  const std::uint64_t exps_after = session.report().total.count(energy::Op::kModExp);
  const std::uint64_t delta = exps_after - exps_before;
  EXPECT_GT(delta, 0U);
  // Far fewer than one exponentiation per member would be possible if the
  // whole group rekeyed (a flat BD re-run costs >= n(n+1) mod-exps).
  EXPECT_LT(delta, session.size() * (session.size() + 1) / 2);
}

TEST(Churn, MixedEventsN64) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 16;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(64, 10000), 6);
  ASSERT_TRUE(session.form().success);
  expect_consistent(session, "form");

  ASSERT_TRUE(session.join(20000).success);
  expect_consistent(session, "join");
  ASSERT_TRUE(session.leave(10007).success);
  expect_consistent(session, "leave");
  ASSERT_TRUE(session.partition({10010, 10011, 10012, 10013, 10020, 10021}).success);
  expect_consistent(session, "partition");
  expect_bounds(session, "partition");

  // Drain one region hard enough to force cluster merges.
  std::vector<std::uint32_t> mass;
  for (std::uint32_t id = 10030; id < 10060; ++id) mass.push_back(id);
  const EventSummary summary = session.partition(mass);
  ASSERT_TRUE(summary.success);
  EXPECT_GT(summary.merges, 0U);
  expect_consistent(session, "mass partition");
  expect_bounds(session, "mass partition");

  // Grow back enough to force splits.
  const EventSummary grown = session.update({}, make_ids(40, 30000));
  ASSERT_TRUE(grown.success);
  EXPECT_GT(grown.splits, 0U);
  expect_consistent(session, "mass join");
  expect_bounds(session, "mass join");
  EXPECT_EQ(session.size(), 64U + 1 - 1 - 6 - 30 + 40);
}

TEST(Churn, MixedEventsN256) {
  ClusterConfig cfg;
  cfg.min_cluster = 8;
  cfg.max_cluster = 32;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(256, 40000), 7);
  ASSERT_TRUE(session.form().success);
  expect_consistent(session, "form n=256");

  std::vector<std::uint32_t> leavers;
  for (std::uint32_t i = 0; i < 10; ++i) leavers.push_back(40000 + i * 17);
  ASSERT_TRUE(session.update(leavers, make_ids(10, 50000)).success);
  expect_consistent(session, "batched churn n=256");
  expect_bounds(session, "batched churn n=256");
  EXPECT_EQ(session.size(), 256U);
}

TEST(Churn, MixedEventsN1024WithFiftyEventBurst) {
  // The acceptance scenario: form at n=1024, then a 50-event churn burst —
  // one consistent group key across all members afterwards.
  ClusterConfig cfg;
  cfg.min_cluster = 8;
  cfg.max_cluster = 48;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(1024, 100000), 8);
  ASSERT_TRUE(session.form().success);
  EXPECT_EQ(session.size(), 1024U);
  EXPECT_GT(session.cluster_count(), 10U);
  expect_consistent(session, "form n=1024");
  const std::uint64_t epoch_before = session.epoch();

  std::vector<std::uint32_t> leavers;
  for (std::uint32_t i = 0; i < 25; ++i) leavers.push_back(100000 + i * 37);
  const EventSummary summary = session.update(leavers, make_ids(25, 200000));
  ASSERT_TRUE(summary.success);
  EXPECT_EQ(summary.events_applied, 50U);
  EXPECT_EQ(session.size(), 1024U);
  EXPECT_EQ(session.epoch(), epoch_before + 1);  // one rekey for the burst
  expect_consistent(session, "after 50-event burst");
  expect_bounds(session, "after 50-event burst");
}

TEST(Churn, SurvivesLossyNetworks) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(32, 60000), 9);
  // Independent 10% loss per copy on every leaf and head-tier network.
  sim::DriverConfig lossy;
  lossy.link.loss_good = 0.10;
  lossy.link.loss_bad = 0.10;
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, lossy, 9);
  driver.attach(session);
  ASSERT_TRUE(driver.form().success);
  ASSERT_TRUE(driver.join(70000).success);
  ASSERT_TRUE(driver.leave(60003).success);
  EXPECT_GT(driver.copies_dropped(), 0U);
  expect_consistent(session, "churn at 10% loss");
}

TEST(Batching, CoalescedBurstCostsFewerBroadcasts) {
  // The same 12-event burst, once as a single update and once as 12
  // sequential events: batching must send fewer broadcast messages (and
  // fewer bits), because the head-tier rekey + downward distribution run
  // once instead of 12 times.
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;

  HierarchicalSession batched(tiny_authority(), cfg, make_ids(48, 300000), 10);
  HierarchicalSession sequential(tiny_authority(), cfg, make_ids(48, 400000), 10);
  ASSERT_TRUE(batched.form().success);
  ASSERT_TRUE(sequential.form().success);

  const std::uint64_t batched_base = batched.report().traffic.tx_messages;
  const std::uint64_t sequential_base = sequential.report().traffic.tx_messages;

  std::vector<std::uint32_t> leavers;
  for (std::uint32_t i = 0; i < 6; ++i) leavers.push_back(300000 + 2 * i);
  ASSERT_TRUE(batched.update(leavers, make_ids(6, 310000)).success);

  for (std::uint32_t i = 0; i < 6; ++i) ASSERT_TRUE(sequential.join(410000 + i).success);
  for (std::uint32_t i = 0; i < 6; ++i) ASSERT_TRUE(sequential.leave(400000 + 2 * i).success);

  expect_consistent(batched, "batched");
  expect_consistent(sequential, "sequential");
  const std::uint64_t batched_cost = batched.report().traffic.tx_messages - batched_base;
  const std::uint64_t sequential_cost =
      sequential.report().traffic.tx_messages - sequential_base;
  EXPECT_LT(batched_cost, sequential_cost);
  EXPECT_LT(batched_cost * 2, sequential_cost);  // and not marginally: >2x saving
}

TEST(Merge, TwoHierarchiesMerge) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession a(tiny_authority(), cfg, make_ids(24, 500000), 11);
  HierarchicalSession b(tiny_authority(), cfg, make_ids(16, 600000), 12);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  const BigInt key_a = a.group_key();
  const BigInt key_b = b.group_key();

  const EventSummary summary = a.merge(b);
  ASSERT_TRUE(summary.success);
  EXPECT_EQ(a.size(), 40U);
  EXPECT_EQ(b.size(), 0U);
  EXPECT_NE(a.group_key(), key_a);
  EXPECT_NE(a.group_key(), key_b);
  expect_consistent(a, "after hierarchy merge");
  expect_bounds(a, "after hierarchy merge");

  EXPECT_THROW((void)a.merge(a), std::invalid_argument);

  // Overlapping member sets are rejected before any state is adopted.
  HierarchicalSession c(tiny_authority(), cfg, make_ids(8, 500010), 15);  // overlaps a
  ASSERT_TRUE(c.form().success);
  EXPECT_THROW((void)a.merge(c), std::invalid_argument);
  EXPECT_EQ(c.size(), 8U);  // untouched by the rejected merge
  expect_consistent(a, "after rejected overlap merge");
}

TEST(Validation, RejectsBadEvents) {
  ClusterConfig cfg;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(8, 700000), 13);
  ASSERT_TRUE(session.form().success);
  EXPECT_THROW((void)session.join(700001), std::invalid_argument);   // already in
  EXPECT_THROW((void)session.leave(999999), std::invalid_argument);  // unknown
  // Draining the whole group below 2 members is rejected up front.
  std::vector<std::uint32_t> all;
  for (std::uint32_t i = 0; i < 7; ++i) all.push_back(700000 + i);
  EXPECT_THROW((void)session.partition(all), std::invalid_argument);
  // A member's join mixed into an otherwise-valid update is rejected up
  // front — before any leaf ring is touched — so the session stays on the
  // current epoch with every view intact.
  const std::uint64_t epoch = session.epoch();
  // 700004 is already a member and not departing.
  EXPECT_THROW((void)session.update({700002}, {700004}), std::invalid_argument);
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_EQ(session.size(), 8U);
  expect_consistent(session, "after rejected mixed update");
}

TEST(Validation, RejectsDuplicateIdsWithinOneList) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(24, 710000), 16);
  ASSERT_TRUE(session.form().success);
  const std::uint64_t epoch = session.epoch();
  const std::vector<std::uint32_t> members = session.member_ids();
  EXPECT_THROW((void)session.update({710003, 710003}, {}), std::invalid_argument);
  EXPECT_THROW((void)session.update({}, {719000, 719000}), std::invalid_argument);
  EXPECT_THROW((void)session.update({710005}, {719001, 719002, 719001}), std::invalid_argument);
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_EQ(session.member_ids(), members);
  expect_consistent(session, "after rejected duplicates");
}

TEST(Update, LeaveAndJoinOfOneMemberReEnrollsIt) {
  // An id in both lists departs and re-enrolls within one round: it stays a
  // member, the group size is unchanged, and its key material is fresh.
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(24, 720000), 17);
  ASSERT_TRUE(session.form().success);
  const std::uint64_t epoch = session.epoch();
  const BigInt key = session.group_key();

  const EventSummary summary = session.update({720005}, {720005});
  ASSERT_TRUE(summary.success);
  EXPECT_EQ(summary.events_applied, 2U);
  EXPECT_EQ(session.epoch(), epoch + 1);
  EXPECT_NE(session.group_key(), key);
  EXPECT_TRUE(session.contains(720005));
  EXPECT_EQ(session.size(), 24U);
  expect_consistent(session, "after leave + re-join of one member");
}

TEST(Update, DriverAdmitsInChunksOf32) {
  // A hierarchical admit enrolls 32 ids per rekey round: 50 new ids cost
  // exactly two rounds.
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(24, 730000), 18);
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, sim::DriverConfig{}, 18);
  driver.attach(session);
  ASSERT_TRUE(driver.form().success);
  const std::uint64_t epoch = session.epoch();
  ASSERT_TRUE(driver.admit(make_ids(50, 739000)).success);
  EXPECT_EQ(session.epoch(), epoch + 2);
  EXPECT_EQ(session.size(), 74U);
  expect_consistent(session, "after a 50-id admit");
}

TEST(Report, RollsUpAllTiersAndDepartures) {
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(24, 800000), 14);
  ASSERT_TRUE(session.form().success);
  const AggregateReport after_form = session.report();
  EXPECT_EQ(after_form.members, 24U);
  EXPECT_GT(after_form.clusters, 1U);
  EXPECT_GT(after_form.total.count(energy::Op::kModExp), 0U);
  EXPECT_GT(after_form.head_tier.count(energy::Op::kModExp), 0U);
  EXPECT_GT(after_form.traffic.tx_messages, 0U);
  EXPECT_GT(after_form.tx_bits(), 0U);
  EXPECT_GT(after_form.energy_mj(energy::strongarm(), energy::wlan_spectrum24()), 0.0);

  // Lifetime totals never shrink, even when members depart (their ledgers
  // are retired into the roll-up, and their network counters are dropped).
  ASSERT_TRUE(session.leave(800003).success);
  const AggregateReport after_leave = session.report();
  EXPECT_EQ(after_leave.members, 23U);
  EXPECT_GE(after_leave.total.count(energy::Op::kModExp),
            after_form.total.count(energy::Op::kModExp));
  EXPECT_GE(after_leave.total.tx_messages, after_form.total.tx_messages);
}

}  // namespace
}  // namespace idgka::cluster
