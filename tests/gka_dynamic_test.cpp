// Dynamic membership protocols (Section 7): Join, Leave, Merge, Partition.
//
// Correctness anchor: after every event the group key equals the BD oracle
// over the *current* ring with the members' *current* ephemerals — i.e. the
// incremental protocols land on exactly the key a from-scratch BD run with
// the same randomness would produce (Eqs. 6, 9, 11, 13).
#include <gtest/gtest.h>

#include "gka/bd_math.h"
#include "gka/session.h"
#include "lossy_link.h"
#include "sim/driver.h"

namespace idgka::gka {
namespace {

Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/54321);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 200) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

BigInt oracle_key(const GroupSession& session) {
  std::vector<BigInt> r;
  for (const MemberCtx& m : session.members()) r.push_back(m.r);
  return bd::direct_key(session.authority().params().group(), r);
}

void expect_consistent(const GroupSession& session, const char* what) {
  ASSERT_FALSE(session.key().is_zero()) << what;
  for (const MemberCtx& m : session.members()) {
    EXPECT_EQ(m.key, session.key()) << what << " member " << m.cred.id;
    EXPECT_EQ(m.ring, session.members().front().ring) << what;
    // Every member agrees on everyone's z (needed for the next event).
    for (const std::uint32_t id : m.ring) {
      EXPECT_EQ(m.z_map.at(id), session.members().front().z_map.at(id)) << what;
    }
  }
  EXPECT_EQ(session.key(), oracle_key(session)) << what;
}

TEST(Join, SingleJoinProducesConsistentRing) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5), 1);
  ASSERT_TRUE(session.form().success);
  const BigInt before = session.key();

  const RunResult result = session.join(999);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(session.size(), 6U);
  EXPECT_NE(session.key(), before);  // key freshness
  expect_consistent(session, "after join");
}

TEST(Join, MinimalGroupOfTwo) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(2), 2);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.join(998).success);
  EXPECT_EQ(session.size(), 3U);
  expect_consistent(session, "join into pair");
}

TEST(Join, SequentialJoins) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(3), 3);
  ASSERT_TRUE(session.form().success);
  for (std::uint32_t id = 900; id < 904; ++id) {
    ASSERT_TRUE(session.join(id).success) << id;
    expect_consistent(session, "sequential join");
  }
  EXPECT_EQ(session.size(), 7U);
}

TEST(Join, RejectsDuplicateId) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(3), 4);
  ASSERT_TRUE(session.form().success);
  EXPECT_THROW((void)session.join(200), std::invalid_argument);
}

TEST(Leave, MiddleMemberLeaves) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(6), 5);
  ASSERT_TRUE(session.form().success);
  const BigInt before = session.key();

  const RunResult result = session.leave(202);  // position 3 in the ring
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 2);
  EXPECT_EQ(session.size(), 5U);
  EXPECT_NE(session.key(), before);
  expect_consistent(session, "after leave");
}

TEST(Leave, ControllerLeaves) {
  // U_1 itself departs; the survivor ring re-anchors on the next member.
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5), 6);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.leave(200).success);
  EXPECT_EQ(session.size(), 4U);
  expect_consistent(session, "controller leave");
}

TEST(Leave, LastMemberLeaves) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5), 7);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.leave(204).success);
  expect_consistent(session, "tail leave");
}

TEST(Leave, DownToMinimumSize) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4), 8);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.leave(201).success);
  ASSERT_TRUE(session.leave(202).success);
  EXPECT_EQ(session.size(), 2U);
  expect_consistent(session, "two remain");
  EXPECT_THROW((void)session.leave(200), std::invalid_argument);
}

TEST(Leave, ForwardSecrecyKeyChanges) {
  // The departed member must not know the new key: at minimum the key
  // changes and fresh odd-survivor randomness enters the exponent.
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5), 9);
  ASSERT_TRUE(session.form().success);
  const BigInt old_key = session.key();
  ASSERT_TRUE(session.leave(203).success);
  EXPECT_NE(session.key(), old_key);
}

TEST(Partition, MultipleLeavers) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(9), 10);
  ASSERT_TRUE(session.form().success);
  const RunResult result = session.partition({206, 207, 208});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 2);
  EXPECT_EQ(session.size(), 6U);
  expect_consistent(session, "after partition");
}

TEST(Partition, NonContiguousLeavers) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(8), 11);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.partition({201, 204, 206}).success);
  EXPECT_EQ(session.size(), 5U);
  expect_consistent(session, "gappy partition");
}

TEST(Partition, ValidationErrors) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4), 12);
  ASSERT_TRUE(session.form().success);
  EXPECT_THROW((void)session.partition({201, 202, 203}), std::invalid_argument);
  EXPECT_THROW((void)session.partition({999}), std::invalid_argument);
}

TEST(Merge, TwoGroupsMerge) {
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(4, 300), 13);
  GroupSession b(test_authority(), Scheme::kProposed, make_ids(3, 400), 14);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  const BigInt key_a = a.key();
  const BigInt key_b = b.key();

  const RunResult result = a.merge(b);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(a.size(), 7U);
  EXPECT_EQ(b.size(), 0U);
  EXPECT_NE(a.key(), key_a);
  EXPECT_NE(a.key(), key_b);
  expect_consistent(a, "after merge");
}

TEST(Merge, MinimalPairs) {
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(2, 310), 15);
  GroupSession b(test_authority(), Scheme::kProposed, make_ids(2, 410), 16);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  ASSERT_TRUE(a.merge(b).success);
  EXPECT_EQ(a.size(), 4U);
  expect_consistent(a, "pair merge");
}

TEST(Merge, ValidationErrors) {
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(2, 320), 17);
  GroupSession b(test_authority(), Scheme::kBdEcdsa, make_ids(2, 420), 18);
  ASSERT_TRUE(a.form().success);
  EXPECT_THROW((void)a.merge(a), std::invalid_argument);
  EXPECT_THROW((void)a.merge(b), std::invalid_argument);
}

TEST(Lifecycle, MixedEventTrace) {
  // A MANET-style life cycle: form, churn, merge, partition — after every
  // event the whole ring agrees and matches the oracle.
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4, 500), 19);
  ASSERT_TRUE(session.form().success);
  expect_consistent(session, "form");

  ASSERT_TRUE(session.join(600).success);
  expect_consistent(session, "join 600");

  ASSERT_TRUE(session.leave(501).success);
  expect_consistent(session, "leave 501");

  GroupSession other(test_authority(), Scheme::kProposed, make_ids(3, 700), 20);
  ASSERT_TRUE(other.form().success);
  ASSERT_TRUE(session.merge(other).success);
  expect_consistent(session, "merge");

  ASSERT_TRUE(session.partition({700, 702}).success);
  expect_consistent(session, "partition");

  ASSERT_TRUE(session.join(601).success);
  expect_consistent(session, "join 601");
  // Joiner from a previous event participates in a later leave (covers the
  // commitment-refresh path for members without stored tau).
  ASSERT_TRUE(session.leave(600).success);
  expect_consistent(session, "leave recent joiner's neighbour");
}

TEST(Lifecycle, DynamicEventsUnderLoss) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5, 520), 21);
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, {.link = test::uniform_loss(0.10)}, 21);
  driver.attach(session);
  ASSERT_TRUE(driver.form().success);
  ASSERT_TRUE(driver.join(610).success);
  ASSERT_TRUE(driver.leave(522).success);
  EXPECT_GT(driver.copies_dropped(), 0U);
  expect_consistent(session, "events under loss");
}

TEST(BaselineDynamics, ReExecutionForNonProposedSchemes) {
  // For every baseline scheme the events fall back to a full re-run (the
  // paper's comparison model) and still yield a consistent fresh key.
  for (const Scheme scheme : {Scheme::kBdEcdsa, Scheme::kSsn}) {
    GroupSession session(test_authority(), scheme, make_ids(4, 540), 22);
    ASSERT_TRUE(session.form().success) << scheme_name(scheme);
    const BigInt before = session.key();
    ASSERT_TRUE(session.join(620).success);
    EXPECT_EQ(session.size(), 5U);
    EXPECT_NE(session.key(), before);
    EXPECT_EQ(session.key(), oracle_key(session));
    ASSERT_TRUE(session.leave(620).success);
    EXPECT_EQ(session.size(), 4U);
    EXPECT_EQ(session.key(), oracle_key(session));
  }
}

TEST(Leave, DepartedMemberLeavesNoNetworkState) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(6, 800), 30);
  ASSERT_TRUE(session.form().success);
  ASSERT_TRUE(session.leave(803).success);
  EXPECT_FALSE(session.network().has_node(803));
  ASSERT_TRUE(session.partition({801, 804}).success);
  EXPECT_FALSE(session.network().has_node(801));
  EXPECT_FALSE(session.network().has_node(804));
  // Only current members remain registered.
  EXPECT_EQ(session.network().node_count(), session.size());
}

TEST(Split, MovesMembersIntoFreshSession) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(8, 820), 31);
  ASSERT_TRUE(session.form().success);
  const BigInt before = session.key();

  GroupSession offshoot = session.split({824, 825, 826, 827}, 32);
  EXPECT_EQ(session.size(), 4U);
  EXPECT_EQ(offshoot.size(), 4U);
  expect_consistent(session, "survivors after split");
  expect_consistent(offshoot, "offshoot after split");
  EXPECT_NE(session.key(), before);        // survivors rekeyed
  EXPECT_NE(offshoot.key(), session.key());  // independent rings
  // Moved members are gone from the original network.
  for (const std::uint32_t id : {824U, 825U, 826U, 827U}) {
    EXPECT_FALSE(session.network().has_node(id));
  }
  EXPECT_THROW((void)session.split({828}, 33), std::invalid_argument);
}

TEST(Split, OffshootTravelsOverTheDriversLink) {
  // The offshoot's network gets the driver's hooks before it carries any
  // traffic, so its formation is priced, lost and retransmitted on the
  // same link as the parent's rounds.
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(6, 840), 34);
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, {.link = test::uniform_loss(0.10)}, 34);
  driver.attach(session);
  ASSERT_TRUE(driver.form().success);
  const std::uint64_t frames_before = driver.frames_on_air();
  const std::uint64_t drops_before = driver.copies_dropped();

  GroupSession offshoot = session.split({843, 844, 845}, 35);
  EXPECT_GT(driver.frames_on_air(), frames_before);
  EXPECT_GT(driver.copies_dropped(), drops_before);
  // The network is lossless, so every drop the offshoot's network saw came
  // from the driver's link, and every frame it sent went on that air.
  EXPECT_GT(offshoot.network().dropped(), 0U);
  EXPECT_GE(driver.frames_on_air() - frames_before,
            offshoot.network().total_stats().tx_messages);
  expect_consistent(session, "survivors after lossy split");
  expect_consistent(offshoot, "lossy offshoot");
}

TEST(Merge, RejectsOverlappingMemberSets) {
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(3, 860), 36);
  GroupSession b(test_authority(), Scheme::kProposed, make_ids(3, 861), 37);  // shares 861, 862
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  EXPECT_THROW((void)a.merge(b), std::invalid_argument);
  EXPECT_EQ(a.size(), 3U);
  EXPECT_EQ(b.size(), 3U);  // both untouched
}

TEST(BaselineDynamics, MergeByReExecution) {
  GroupSession a(test_authority(), Scheme::kBdEcdsa, make_ids(3, 560), 23);
  GroupSession b(test_authority(), Scheme::kBdEcdsa, make_ids(2, 580), 24);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  ASSERT_TRUE(a.merge(b).success);
  EXPECT_EQ(a.size(), 5U);
  EXPECT_EQ(a.key(), oracle_key(a));
}

// Regression: move-construction and move-assignment are both defined (the
// authority is held by pointer so assignment can rebind it) and a session
// survives a full move round-trip with its ring state and liveness intact.
TEST(Session, MoveRoundTripPreservesRingState) {
  GroupSession original(test_authority(), Scheme::kProposed, make_ids(4, 900), 91);
  ASSERT_TRUE(original.form().success);
  const BigInt key = original.key();
  const auto ids = original.member_ids();

  GroupSession moved(std::move(original));  // move-construct
  EXPECT_EQ(moved.key(), key);
  EXPECT_EQ(moved.member_ids(), ids);
  EXPECT_EQ(&moved.authority(), &test_authority());

  GroupSession target(test_authority(), Scheme::kProposed, make_ids(3, 950), 92);
  target = std::move(moved);  // move-assign over a live session
  EXPECT_EQ(target.key(), key);
  EXPECT_EQ(target.member_ids(), ids);
  expect_consistent(target, "after move round-trip");

  // The moved-to session is fully operational: run a membership event and
  // land on the BD oracle key for the new ring.
  ASSERT_TRUE(target.join(980).success);
  EXPECT_EQ(target.size(), 5U);
  EXPECT_EQ(target.key(), oracle_key(target));
  ASSERT_TRUE(target.leave(901).success);
  EXPECT_EQ(target.key(), oracle_key(target));
}

}  // namespace
}  // namespace idgka::gka
