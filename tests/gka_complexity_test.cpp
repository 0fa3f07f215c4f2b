// Formula-vs-instrumented validation.
//
// The Table-1/Figure-1/Table-4/Table-5 benches evaluate closed-form ledgers
// (gka/complexity.h) instead of executing 500-node protocols; these tests
// pin those formulas to reality: for real protocol runs, the instrumented
// per-member ledgers must match the formulas exactly — operation counts at
// any profile, and radio bits at the paper profile (where |p| = |n| = 1024
// makes the paper's wire accounting exact).
#include <gtest/gtest.h>

#include "gka/complexity.h"

namespace idgka::gka {
namespace {

Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/2222);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 800) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

void expect_same_ops(const energy::Ledger& got, const energy::Ledger& want,
                     const std::string& what) {
  for (std::size_t i = 0; i < energy::kOpCount; ++i) {
    EXPECT_EQ(got.counts[i], want.counts[i])
        << what << ": op " << energy::op_name(static_cast<energy::Op>(i));
  }
  EXPECT_EQ(got.tx_messages, want.tx_messages) << what << ": tx msgs";
  EXPECT_EQ(got.rx_messages, want.rx_messages) << what << ": rx msgs";
}

struct CountCase {
  Scheme scheme;
  std::size_t n;
};

class InitialCountsTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(InitialCountsTest, InstrumentedOpsEqualFormula) {
  const auto [scheme, n] = GetParam();
  GroupSession session(test_authority(), scheme, make_ids(n), 31);
  ASSERT_TRUE(session.form().success);
  const energy::Ledger want = impl_initial_ledger(scheme, n);
  for (const std::uint32_t id : session.member_ids()) {
    expect_same_ops(session.ledger(id), want,
                    std::string(scheme_name(scheme)) + " n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, InitialCountsTest,
    ::testing::Values(CountCase{Scheme::kProposed, 2}, CountCase{Scheme::kProposed, 3},
                      CountCase{Scheme::kProposed, 7}, CountCase{Scheme::kProposed, 12},
                      CountCase{Scheme::kBdSok, 3}, CountCase{Scheme::kBdSok, 5},
                      CountCase{Scheme::kBdEcdsa, 3}, CountCase{Scheme::kBdEcdsa, 8},
                      CountCase{Scheme::kBdDsa, 3}, CountCase{Scheme::kBdDsa, 6},
                      CountCase{Scheme::kSsn, 3}, CountCase{Scheme::kSsn, 9}),
    [](const ::testing::TestParamInfo<CountCase>& info) {
      std::string name = scheme_name(info.param.scheme);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_n" + std::to_string(info.param.n);
    });

TEST(InitialCounts, MatchPaperTable1Shape) {
  // Our implementation's op counts match the paper's Table 1 entries
  // (except SSN: we measure 2n+3 vs the paper's 2n+4; see README,
  // "Deviations from the paper").
  const std::size_t n = 10;
  using energy::Op;

  const auto prop = impl_initial_ledger(Scheme::kProposed, n);
  EXPECT_EQ(prop.count(Op::kModExp), 3U);
  EXPECT_EQ(prop.count(Op::kSignGenGq), 1U);
  EXPECT_EQ(prop.count(Op::kSignVerGq), 1U);

  const auto sok = impl_initial_ledger(Scheme::kBdSok, n);
  EXPECT_EQ(sok.count(Op::kModExp), 3U);
  EXPECT_EQ(sok.count(Op::kMapToPoint), n - 1);
  EXPECT_EQ(sok.count(Op::kSignVerSok), n - 1);

  const auto ecdsa = impl_initial_ledger(Scheme::kBdEcdsa, n);
  EXPECT_EQ(ecdsa.count(Op::kCertVerifyEcdsa), n - 1);
  EXPECT_EQ(ecdsa.count(Op::kSignVerEcdsa), n - 1);

  const auto ssn = impl_initial_ledger(Scheme::kSsn, n);
  EXPECT_EQ(ssn.count(Op::kModExp), 2 * n + 3);  // paper: 2n+4
  const auto paper_ssn = paper_table1(Scheme::kSsn, n);
  EXPECT_EQ(paper_ssn.exp_count, 2 * n + 4);
  EXPECT_LE(ssn.count(Op::kModExp), paper_ssn.exp_count);
}

TEST(PaperTables, Table1RowsEvaluate) {
  const auto row = paper_table1(Scheme::kBdEcdsa, 50);
  EXPECT_EQ(row.exp_count, 3U);
  EXPECT_EQ(row.msg_rx, 98U);
  EXPECT_EQ(row.cert_rx, 49U);
  EXPECT_EQ(row.cert_ver, 49U);
  EXPECT_EQ(row.sign_ver, 49U);
  const auto prop = paper_table1(Scheme::kProposed, 50);
  EXPECT_EQ(prop.sign_ver, 1U);
  EXPECT_EQ(prop.cert_rx, 0U);
}

TEST(PaperTables, Table4RowsEvaluate) {
  // n=100, m=20, ld=20 — the paper's Table 5 scenario.
  const auto bd_join = paper_table4(DynamicEvent::kJoin, true, 100, 20, 20);
  EXPECT_EQ(bd_join.msg_count, 202U);
  EXPECT_EQ(bd_join.rounds, 2);
  const auto our_join = paper_table4(DynamicEvent::kJoin, false, 100, 20, 20);
  EXPECT_EQ(our_join.msg_count, 5U);
  EXPECT_EQ(our_join.rounds, 3);
  const auto our_leave = paper_table4(DynamicEvent::kLeave, false, 100, 20, 20);
  EXPECT_EQ(our_leave.msg_count, 50U + 98U);  // v + n - 2, v = 50
  const auto our_part = paper_table4(DynamicEvent::kPartition, false, 100, 20, 20);
  EXPECT_EQ(our_part.msg_count, 40U + 60U);  // v + n - 2ld, v = 40
}

// ---------------------------------------------------------------------------
// Dynamic-event role ledgers vs instrumented runs.
// The canonical scenario matches impl_dynamic_ledgers: join into a fresh
// group; leaver/partitioned members at the tail of the ring.
// ---------------------------------------------------------------------------

TEST(DynamicCounts, JoinRoles) {
  const std::size_t n = 6;
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(n), 32);
  ASSERT_TRUE(session.form().success);
  session.reset_ledgers();
  ASSERT_TRUE(session.join(890).success);

  const auto& p = test_authority().params();
  const auto want = impl_dynamic_ledgers(DynamicEvent::kJoin, n, 0, 0,
                                         p.element_bits(), p.gq_t_bits());
  const auto ids = session.member_ids();
  expect_same_ops(session.ledger(ids[0]), want.at(Role::kController), "join U1");
  expect_same_ops(session.ledger(ids[n - 1]), want.at(Role::kBridge), "join Un");
  expect_same_ops(session.ledger(890), want.at(Role::kJoiner), "join joiner");
  for (std::size_t i = 1; i + 1 < n; ++i) {
    expect_same_ops(session.ledger(ids[i]), want.at(Role::kOther), "join other");
  }
}

TEST(DynamicCounts, LeaveRoles) {
  const std::size_t n = 7;
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(n), 33);
  ASSERT_TRUE(session.form().success);
  session.reset_ledgers();
  const auto ids = session.member_ids();
  ASSERT_TRUE(session.leave(ids[n - 1]).success);  // canonical: tail leaves

  const auto& p = test_authority().params();
  const auto want = impl_dynamic_ledgers(DynamicEvent::kLeave, n, 0, 0,
                                         p.element_bits(), p.gq_t_bits());
  for (std::size_t pos = 1; pos <= n - 1; ++pos) {  // survivor positions, 1-based
    const Role role = pos % 2 == 1 ? Role::kOddSurvivor : Role::kEvenSurvivor;
    expect_same_ops(session.ledger(ids[pos - 1]), want.at(role),
                    "leave pos " + std::to_string(pos));
  }
}

TEST(DynamicCounts, PartitionRoles) {
  const std::size_t n = 9;
  const std::size_t ld = 3;
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(n), 34);
  ASSERT_TRUE(session.form().success);
  session.reset_ledgers();
  const auto ids = session.member_ids();
  ASSERT_TRUE(session.partition({ids[n - 3], ids[n - 2], ids[n - 1]}).success);

  const auto& p = test_authority().params();
  const auto want = impl_dynamic_ledgers(DynamicEvent::kPartition, n, 0, ld,
                                         p.element_bits(), p.gq_t_bits());
  for (std::size_t pos = 1; pos <= n - ld; ++pos) {
    const Role role = pos % 2 == 1 ? Role::kOddSurvivor : Role::kEvenSurvivor;
    expect_same_ops(session.ledger(ids[pos - 1]), want.at(role),
                    "partition pos " + std::to_string(pos));
  }
}

TEST(DynamicCounts, MergeRoles) {
  const std::size_t n = 5;
  const std::size_t m = 4;
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(n, 820), 35);
  GroupSession b(test_authority(), Scheme::kProposed, make_ids(m, 840), 36);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  a.reset_ledgers();
  b.reset_ledgers();
  const auto ids_a = a.member_ids();
  const auto ids_b = b.member_ids();
  ASSERT_TRUE(a.merge(b).success);

  const auto& p = test_authority().params();
  const auto want = impl_dynamic_ledgers(DynamicEvent::kMerge, n, m, 0,
                                         p.element_bits(), p.gq_t_bits());
  expect_same_ops(a.ledger(ids_a[0]), want.at(Role::kController), "merge U1");
  expect_same_ops(a.ledger(ids_b[0]), want.at(Role::kBridge), "merge Un+1");
  for (std::size_t i = 1; i < n; ++i) {
    expect_same_ops(a.ledger(ids_a[i]), want.at(Role::kOtherA), "merge otherA");
  }
  for (std::size_t i = 1; i < m; ++i) {
    expect_same_ops(a.ledger(ids_b[i]), want.at(Role::kOtherB), "merge otherB");
  }
}

TEST(SealedBits, MatchesSealedBoxFormat) {
  // 1024-bit payload: 2 + 128 + 4 = 134 bytes -> 144 after PKCS#7.
  EXPECT_EQ(sealed_bits(1024), 144U * 8);
  // 256-bit payload: 2 + 32 + 4 = 38 -> 48.
  EXPECT_EQ(sealed_bits(256), 48U * 8);
  // Exact block multiple still gains a full padding block (PKCS#7).
  EXPECT_EQ(sealed_bits(80), 32U * 8);
}


// ---------------------------------------------------------------------------
// Paper-profile (1024-bit) validation: with |p| = |n| = 1024 the formulas'
// default wire accounting is exact, so the FULL ledger — operations and
// radio bits — must match the instrumented runs bit-for-bit.
// ---------------------------------------------------------------------------

void expect_same_ledger(const energy::Ledger& got, const energy::Ledger& want,
                        const std::string& what) {
  expect_same_ops(got, want, what);
  EXPECT_EQ(got.tx_bits, want.tx_bits) << what << ": tx bits";
  EXPECT_EQ(got.rx_bits, want.rx_bits) << what << ": rx bits";
}

Authority& paper_authority() {
  static Authority authority(SecurityProfile::kPaper, /*seed=*/3333);
  return authority;
}

TEST(PaperProfileBits, InitialGkaLedgersExact) {
  const std::size_t n = 4;
  for (const Scheme scheme : {Scheme::kProposed, Scheme::kBdEcdsa, Scheme::kBdDsa,
                              Scheme::kSsn, Scheme::kBdSok}) {
    GroupSession session(paper_authority(), scheme, make_ids(n, 850), 41);
    ASSERT_TRUE(session.form().success) << scheme_name(scheme);
    const energy::Ledger want = impl_initial_ledger(scheme, n);
    for (const std::uint32_t id : session.member_ids()) {
      expect_same_ledger(session.ledger(id), want, scheme_name(scheme));
    }
  }
}

TEST(PaperProfileBits, DynamicLedgersExact) {
  const std::size_t n = 5;
  GroupSession session(paper_authority(), Scheme::kProposed, make_ids(n, 860), 42);
  ASSERT_TRUE(session.form().success);
  session.reset_ledgers();
  ASSERT_TRUE(session.join(899).success);
  const auto join_want = impl_dynamic_ledgers(DynamicEvent::kJoin, n);
  const auto ids = session.member_ids();
  expect_same_ledger(session.ledger(ids[0]), join_want.at(Role::kController), "U1");
  expect_same_ledger(session.ledger(ids[n - 1]), join_want.at(Role::kBridge), "Un");
  expect_same_ledger(session.ledger(899), join_want.at(Role::kJoiner), "joiner");
  expect_same_ledger(session.ledger(ids[1]), join_want.at(Role::kOther), "other");

  // Leave of the tail member (the joiner) from the now 6-member ring.
  session.reset_ledgers();
  ASSERT_TRUE(session.leave(899).success);
  const auto leave_want = impl_dynamic_ledgers(DynamicEvent::kLeave, n + 1);
  expect_same_ledger(session.ledger(ids[0]), leave_want.at(Role::kOddSurvivor), "odd");
  expect_same_ledger(session.ledger(ids[1]), leave_want.at(Role::kEvenSurvivor), "even");
}

TEST(PaperProfileBits, MergeLedgersExact) {
  const std::size_t n = 3;
  const std::size_t m = 3;
  GroupSession a(paper_authority(), Scheme::kProposed, make_ids(n, 870), 43);
  GroupSession b(paper_authority(), Scheme::kProposed, make_ids(m, 880), 44);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  a.reset_ledgers();
  b.reset_ledgers();
  const auto ids_a = a.member_ids();
  const auto ids_b = b.member_ids();
  ASSERT_TRUE(a.merge(b).success);
  const auto want = impl_dynamic_ledgers(DynamicEvent::kMerge, n, m);
  expect_same_ledger(a.ledger(ids_a[0]), want.at(Role::kController), "merge U1");
  expect_same_ledger(a.ledger(ids_b[0]), want.at(Role::kBridge), "merge Ub");
  expect_same_ledger(a.ledger(ids_a[1]), want.at(Role::kOtherA), "merge otherA");
  expect_same_ledger(a.ledger(ids_b[1]), want.at(Role::kOtherB), "merge otherB");
}

}  // namespace
}  // namespace idgka::gka
