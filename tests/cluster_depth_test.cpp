// Depth-k hierarchy: nested head tiers (heads-of-heads) under churn.
//
// A tiny cluster bound (min=2, max=4) forces the head set past max_cluster
// at modest n, so these suites exercise tier nesting cheaply: tree shape,
// unbounded nesting, key consistency through join/leave/partition/merge
// across depth transitions, run-to-run determinism at equal seeds, and
// monotonic lifetime energy accounting while tiers appear and dissolve, a
// head handover that rebuilds a two-head ring, and the tree shape at every
// step of churn that crosses max_cluster both ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>

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

TEST(DepthKTest, HeadHandoverRebuildsTwoHeadRing) {
  // Two clusters: the tier above is a ring of two heads. When the second
  // head leaves, its cluster's next member takes over and only one current
  // head survives in the ring, so the ring is renegotiated from scratch.
  ClusterConfig cfg;
  cfg.min_cluster = 4;
  cfg.max_cluster = 12;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(16), /*seed=*/31);
  ASSERT_TRUE(session.form().success);
  ASSERT_EQ(session.cluster_count(), 2U);
  ASSERT_EQ(session.tier_sizes(), (std::vector<std::size_t>{16, 2}));

  std::map<std::uint32_t, std::uint64_t> before;
  for (const std::uint32_t id : session.member_ids()) {
    before[id] = ledger_weight(session.member_ledger(id));
  }
  const std::uint32_t leaver = session.cluster_heads()[1];
  ASSERT_TRUE(session.leave(leaver).success);
  expect_consistent(session, "after head handover");
  EXPECT_EQ(session.tier_sizes(), (std::vector<std::size_t>{15, 2}));
  EXPECT_FALSE(session.contains(leaver));
  for (const std::uint32_t id : session.member_ids()) {
    EXPECT_GE(ledger_weight(session.member_ledger(id)), before.at(id)) << "member " << id;
  }
}

// A plain member's leave re-forms its own leaf ring and one ring per tier
// above it, not every ring of a sharded tier: only the members of those
// rings spend an exponentiation.
TEST(DepthKTest, NonHeadLeaveRekeysOnlyTheTierPath) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(60), /*seed=*/37);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.depth(), 3U);
  // Tier 2 is sharded into several rings, so a whole-tier re-form would
  // reach far more members than the path.
  ASSERT_GT(session.tier_sizes()[1], 2 * deep_config().max_cluster);

  // Members are listed cluster by cluster: take the second member of the
  // first cluster of at least three, whose survivors stay one ring.
  const std::vector<std::uint32_t> ids = session.member_ids();
  const std::vector<std::size_t> sizes = session.cluster_sizes();
  std::size_t offset = 0;
  std::size_t ring = 0;
  while (sizes[ring] < 3) offset += sizes[ring++];
  const std::uint32_t leaver = ids[offset + 1];
  const std::size_t leaf_ring = sizes[ring];

  std::map<std::uint32_t, std::uint64_t> exps;
  for (const std::uint32_t id : ids) {
    exps[id] = session.member_ledger(id).count(energy::Op::kModExp);
  }
  const std::size_t depth = session.depth();
  const BigInt before = session.group_key();
  ASSERT_TRUE(session.leave(leaver).success);
  ASSERT_EQ(session.depth(), depth);
  EXPECT_NE(session.group_key(), before);
  expect_consistent(session, "after path rekey");

  std::size_t spent = 0;
  for (const std::uint32_t id : session.member_ids()) {
    if (session.member_ledger(id).count(energy::Op::kModExp) > exps.at(id)) ++spent;
  }
  EXPECT_GT(spent, 0U);
  EXPECT_LE(spent, leaf_ring + (depth - 1) * deep_config().max_cluster);
}

// One flush mixes a head's leave (the tier's own membership changes) with
// plain leaves and a join in clusters whose heads sit in other tier-2
// rings; then churn crosses depth 3 <-> 4. Every step must leave all
// members on one fresh key.
TEST(DepthKTest, MixedBatchesAndDepthChurnKeepOneFreshKey) {
  HierarchicalSession session(tiny_authority(), deep_config(), make_ids(60), /*seed=*/43);
  ASSERT_TRUE(session.form().success);
  ASSERT_GE(session.depth(), 3U);

  const std::vector<std::uint32_t> ids = session.member_ids();
  const std::vector<std::size_t> sizes = session.cluster_sizes();
  const std::vector<std::uint32_t> heads = session.cluster_heads();
  const std::size_t last = sizes.size() - 1;
  BigInt before = session.group_key();
  session.enqueue_leave(heads[sizes.size() / 2]);
  session.enqueue_leave(ids[1]);                     // plain member of the first cluster
  session.enqueue_leave(ids[ids.size() - sizes[last] + 1]);  // ... and of the last
  session.enqueue_join(7000);
  ASSERT_TRUE(session.flush().success);
  EXPECT_NE(session.group_key(), before);
  expect_consistent(session, "after mixed batch");

  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&](std::size_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((rng >> 33) % bound);
  };
  std::uint32_t next_id = 30000;
  std::size_t min_depth = session.depth();
  std::size_t max_depth = session.depth();
  for (int phase = 0; phase < 2; ++phase) {
    const bool grow = phase == 0;
    while (grow ? session.size() < 100 : session.size() > 30) {
      // Mostly growth (or shrinkage), with one event of the other kind so
      // most batches mix joins and leaves.
      std::vector<std::uint32_t> members = session.member_ids();
      for (std::size_t i = 0, batch = 2 + next(5); i < batch; ++i) {
        if ((i == 0) == grow) {
          const std::size_t pick = next(members.size());
          session.enqueue_leave(members[pick]);
          members.erase(members.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          session.enqueue_join(next_id++);
        }
      }
      before = session.group_key();
      ASSERT_TRUE(session.flush().success);
      const std::string what = "phase " + std::to_string(phase) + " at n=" +
                               std::to_string(session.size());
      EXPECT_NE(session.group_key(), before) << what;
      expect_consistent(session, what.c_str());
      min_depth = std::min(min_depth, session.depth());
      max_depth = std::max(max_depth, session.depth());
    }
  }
  EXPECT_LE(min_depth, 3U);
  EXPECT_GE(max_depth, 4U);
}

// Tree shape: every tier above the leaves except the top holds more than
// max_cluster members (so it had to be sharded), and the top tier fits one
// ring of at most max_cluster.
void expect_shape(const HierarchicalSession& session, const std::string& what) {
  const std::vector<std::size_t> tiers = session.tier_sizes();
  ASSERT_EQ(tiers.size(), session.depth()) << what;
  const std::size_t max = session.config().max_cluster;
  for (std::size_t t = 1; t + 1 < tiers.size(); ++t) {
    EXPECT_GT(tiers[t], max) << what << " tier " << t;
  }
  EXPECT_LE(tiers.back(), max) << what;
}

// Grows the group past `high` members and shrinks it below `low`, twice,
// in batches of 1-6 events (leaves pick members, heads included, at
// random), checking the tree shape and key agreement after every flush.
void churn_across_max_cluster(std::size_t min_cluster, std::size_t max_cluster, std::size_t low,
                              std::size_t high) {
  ClusterConfig cfg;
  cfg.min_cluster = min_cluster;
  cfg.max_cluster = max_cluster;
  cfg.batch_capacity = 64;
  HierarchicalSession session(tiny_authority(), cfg, make_ids(low), /*seed=*/41);
  ASSERT_TRUE(session.form().success);
  expect_shape(session, "after form");

  std::uint64_t rng = 0x243f6a8885a308d3ULL;
  const auto next = [&](std::size_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((rng >> 33) % bound);
  };
  std::uint32_t next_id = 20000;
  std::size_t min_depth = session.depth();
  std::size_t max_depth = session.depth();
  for (int phase = 0; phase < 4; ++phase) {
    const bool grow = phase % 2 == 0;
    while (grow ? session.size() < high : session.size() > low) {
      const std::size_t batch = 1 + next(6);
      if (grow) {
        for (std::size_t i = 0; i < batch; ++i) session.enqueue_join(next_id++);
      } else {
        std::vector<std::uint32_t> ids = session.member_ids();
        for (std::size_t i = 0; i < batch && ids.size() > 2; ++i) {
          const std::size_t pick = next(ids.size());
          session.enqueue_leave(ids[pick]);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      ASSERT_TRUE(session.flush().success);
      const std::string what = "phase " + std::to_string(phase) + " at n=" +
                               std::to_string(session.size());
      expect_shape(session, what);
      expect_consistent(session, what.c_str());
      min_depth = std::min(min_depth, session.depth());
      max_depth = std::max(max_depth, session.depth());
    }
  }
  // The churn really crossed max_cluster at the head tier both ways.
  EXPECT_LE(min_depth, 2U);
  EXPECT_GE(max_depth, 3U);
}

TEST(DepthKTest, TreeShapeHoldsThroughChurnAcrossMaxClusterTiny) {
  churn_across_max_cluster(2, 4, 6, 40);
}

TEST(DepthKTest, TreeShapeHoldsThroughChurnAcrossMaxClusterWide) {
  churn_across_max_cluster(4, 12, 20, 130);
}

}  // namespace
}  // namespace idgka::cluster
