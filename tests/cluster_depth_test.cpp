// Depth-k hierarchy: nested head tiers (heads-of-heads) under churn.
//
// A tiny cluster bound (min=2, max=4) forces the head set past max_cluster
// at modest n, so these suites exercise tier nesting cheaply: tree shape,
// unbounded nesting, key consistency through join/leave/partition/merge
// across depth transitions, run-to-run determinism at equal seeds, and
// monotonic lifetime energy accounting while tiers appear and dissolve.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "cluster/hierarchical_session.h"

namespace idgka::cluster {
namespace {

gka::Authority& tiny_authority() {
  static gka::Authority authority(gka::SecurityProfile::kTiny, /*seed=*/424242);
  return authority;
}

ClusterConfig deep_config() {
  ClusterConfig cfg;
  cfg.min_cluster = 2;
  cfg.max_cluster = 4;
  cfg.batch_capacity = 8;
  return cfg;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 1000) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

void expect_consistent(const HierarchicalSession& session, const char* what) {
  ASSERT_TRUE(session.all_members_agree()) << what;
  for (const std::uint32_t id : session.member_ids()) {
    EXPECT_EQ(session.member_key_view(id), session.group_key()) << what << " member " << id;
  }
}

std::uint64_t ledger_weight(const energy::Ledger& ledger) {
  const std::uint64_t ops =
      std::accumulate(ledger.counts.begin(), ledger.counts.end(), std::uint64_t{0});
  return ops + ledger.tx_bits + ledger.rx_bits;
}

TEST(DepthKTest, NestedTierFormsWhenHeadsOverflowMaxCluster) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(30), /*seed=*/7);
  ASSERT_TRUE(session.form().success);

  // 30 members in clusters of <= 4 yields ~10 heads — past max_cluster, so
  // the head tier must itself be sharded (depth >= 3).
  EXPECT_GE(session.depth(), 3U);
  const auto tiers = session.tier_sizes();
  ASSERT_EQ(tiers.size(), session.depth());
  EXPECT_EQ(tiers.front(), 30U);
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    EXPECT_LT(tiers[t], tiers[t - 1]) << "tier " << t << " must shrink";
  }
  expect_consistent(session, "after deep form");
}

TEST(DepthKTest, NinetyMembersNestAtLeastFourTiers) {
  // 90 members -> ~30 heads -> ~10 heads-of-heads, which still overflow
  // max_cluster, so the tree nests again.
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(90), /*seed=*/11);
  ASSERT_TRUE(session.form().success);
  EXPECT_GE(session.depth(), 4U);
  expect_consistent(session, "after 90-member form");
}

TEST(DepthKTest, ChurnIsDeterministicAcrossIdenticalRuns) {
  HierarchicalSession a(tiny_authority(), deep_config(), make_ids(30), /*seed=*/99);
  HierarchicalSession b(tiny_authority(), deep_config(), make_ids(30), /*seed=*/99);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  EXPECT_EQ(a.group_key(), b.group_key());

  const auto drive = [](HierarchicalSession& s) {
    s.join(5000);
    s.leave(1003);
    s.partition({1010, 1011, 1012, 1013, 1020});
    for (std::uint32_t id = 6000; id < 6012; ++id) s.enqueue_join(id);
    s.flush();
    s.leave(5000);
  };
  drive(a);
  drive(b);

  EXPECT_EQ(a.group_key(), b.group_key());
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.depth(), b.depth());
  EXPECT_EQ(a.tier_sizes(), b.tier_sizes());
  EXPECT_EQ(a.cluster_sizes(), b.cluster_sizes());
  expect_consistent(a, "after deterministic churn");
}

TEST(DepthKTest, DepthCollapsesAndRegrowsUnderChurn) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(30), /*seed=*/3);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.depth(), 3U);

  // Partition down to 8 members: few clusters, flat (or single) head tier.
  const auto ids = session.member_ids();
  std::vector<std::uint32_t> leavers(ids.begin(), ids.begin() + (ids.size() - 8));
  ASSERT_TRUE(session.partition(leavers).success);
  EXPECT_EQ(session.size(), 8U);
  EXPECT_LE(session.depth(), 2U);
  expect_consistent(session, "after collapse");

  // Grow back past the nesting threshold: the deep tree must return.
  for (std::uint32_t id = 9000; id < 9040; ++id) session.enqueue_join(id);
  session.flush();
  EXPECT_EQ(session.size(), 48U);
  EXPECT_GE(session.depth(), 3U);
  expect_consistent(session, "after regrowth");
}

TEST(DepthKTest, MergeAbsorbsDeepSessions) {
  HierarchicalSession left(tiny_authority(), deep_config(), make_ids(24, 1000), /*seed=*/21);
  HierarchicalSession right(tiny_authority(), deep_config(), make_ids(24, 4000), /*seed=*/22);
  ASSERT_TRUE(left.form().success);
  ASSERT_TRUE(right.form().success);
  ASSERT_GE(left.depth(), 3U);
  ASSERT_GE(right.depth(), 3U);

  const auto summary = left.merge(right);
  EXPECT_TRUE(summary.success);
  EXPECT_EQ(left.size(), 48U);
  EXPECT_EQ(right.size(), 0U);
  EXPECT_GE(left.depth(), 3U);
  expect_consistent(left, "after merge");

  std::set<std::uint32_t> members;
  for (const std::uint32_t id : left.member_ids()) members.insert(id);
  for (const std::uint32_t id : make_ids(24, 1000)) EXPECT_TRUE(members.count(id));
  for (const std::uint32_t id : make_ids(24, 4000)) EXPECT_TRUE(members.count(id));
}

TEST(DepthKTest, LeafEventRekeysDeepTree) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(30), /*seed=*/13);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.depth(), 3U);

  const BigInt before = session.group_key();
  const std::uint64_t epoch_before = session.epoch();
  // Pick a plain (non-head) member so only the leaf ring plus the tier path
  // above it should be touched — the group key must still change.
  std::set<std::uint32_t> heads;
  for (const std::uint32_t h : session.cluster_heads()) heads.insert(h);
  std::uint32_t leaver = 0;
  for (const std::uint32_t id : session.member_ids()) {
    if (heads.count(id) == 0) {
      leaver = id;
      break;
    }
  }
  ASSERT_NE(leaver, 0U);
  ASSERT_TRUE(session.leave(leaver).success);
  EXPECT_NE(session.group_key(), before);
  EXPECT_GT(session.epoch(), epoch_before);
  expect_consistent(session, "after leaf leave");
}

TEST(DepthKTest, MemberLedgersStayMonotonicAcrossTierTransitions) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(30), /*seed=*/17);
  ASSERT_TRUE(session.form().success);
  const std::uint32_t tracked = session.cluster_heads().front();  // deep-tier participant
  std::uint64_t last = ledger_weight(session.member_ledger(tracked));
  EXPECT_GT(last, 0U);

  // Collapse below the nesting threshold, then regrow: the tracked head's
  // lifetime ledger must never move backwards even as the nested tier it
  // participated in is dissolved and rebuilt.
  const auto ids = session.member_ids();
  std::vector<std::uint32_t> leavers;
  for (const std::uint32_t id : ids) {
    if (id != tracked && leavers.size() < ids.size() - 8) leavers.push_back(id);
  }
  ASSERT_TRUE(session.partition(leavers).success);
  ASSERT_TRUE(session.contains(tracked));
  std::uint64_t now = ledger_weight(session.member_ledger(tracked));
  EXPECT_GE(now, last);
  last = now;

  for (std::uint32_t id = 9100; id < 9140; ++id) session.enqueue_join(id);
  session.flush();
  ASSERT_GE(session.depth(), 3U);
  now = ledger_weight(session.member_ledger(tracked));
  EXPECT_GE(now, last);
}

TEST(DepthKTest, ReportAggregatesNestedTiers) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(30), /*seed=*/29);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.depth(), 3U);
  const AggregateReport rep = session.report();
  EXPECT_EQ(rep.members, 30U);
  // The roll-up must cover at least the per-member lifetime views.
  energy::Ledger sum;
  for (const std::uint32_t id : session.member_ids()) sum += session.member_ledger(id);
  EXPECT_GE(ledger_weight(rep.total), ledger_weight(sum));
}

}  // namespace
}  // namespace idgka::cluster
