// Initial group key agreement: all five schemes of Table 1.
//
// Correctness anchor: every member computes the same key, and that key
// equals the BD oracle g^{sum r_i r_{i+1}} computed directly from the
// members' ephemerals (Eq. 3).
#include <gtest/gtest.h>

#include "bd_oracle.h"
#include "gka/bd_math.h"
#include "gka/session.h"
#include "lossy_link.h"
#include "sim/driver.h"

namespace idgka::gka {
namespace {

// One authority shared across the suite (parameter generation is the
// expensive part; protocol runs are cheap).
Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/12345);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 100) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

BigInt oracle_key(const GroupSession& session) {
  std::vector<BigInt> r;
  for (const MemberCtx& m : session.members()) r.push_back(m.r);
  return test::direct_key(session.authority().params().group(), r);
}

struct SchemeCase {
  Scheme scheme;
  std::size_t n;
};

class FormTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(FormTest, AllMembersAgreeOnBdKey) {
  const auto [scheme, n] = GetParam();
  GroupSession session(test_authority(), scheme, make_ids(n), /*seed=*/1);
  const RunResult result = session.form();
  ASSERT_TRUE(result.success) << scheme_name(scheme) << " n=" << n;
  EXPECT_EQ(result.rounds, 2);
  EXPECT_EQ(result.retransmissions, 0);
  // All members hold the same key (the driver asserts equality internally;
  // double-check through the public API).
  EXPECT_FALSE(session.key().is_zero());
  for (const MemberCtx& m : session.members()) EXPECT_EQ(m.key, session.key());
  // The key is exactly Eq. (3).
  EXPECT_EQ(session.key(), oracle_key(session));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FormTest,
    ::testing::Values(SchemeCase{Scheme::kProposed, 2}, SchemeCase{Scheme::kProposed, 3},
                      SchemeCase{Scheme::kProposed, 5}, SchemeCase{Scheme::kProposed, 9},
                      SchemeCase{Scheme::kBdSok, 2}, SchemeCase{Scheme::kBdSok, 4},
                      SchemeCase{Scheme::kBdEcdsa, 2}, SchemeCase{Scheme::kBdEcdsa, 5},
                      SchemeCase{Scheme::kBdDsa, 2}, SchemeCase{Scheme::kBdDsa, 5},
                      SchemeCase{Scheme::kSsn, 2}, SchemeCase{Scheme::kSsn, 5},
                      SchemeCase{Scheme::kSsn, 8}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string name = scheme_name(info.param.scheme);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_n" + std::to_string(info.param.n);
    });

TEST(FormDeterminism, SameSeedSameKey) {
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(4), 777);
  GroupSession b(test_authority(), Scheme::kProposed, make_ids(4), 777);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  EXPECT_EQ(a.key(), b.key());

  GroupSession c(test_authority(), Scheme::kProposed, make_ids(4), 778);
  ASSERT_TRUE(c.form().success);
  EXPECT_NE(a.key(), c.key());
}

TEST(FormUnderLoss, RetransmissionsRecoverTheRun) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(6), /*seed=*/9);
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, {.link = test::uniform_loss(0.15)}, /*seed=*/9);
  driver.attach(session);
  const sim::OpOutcome result = driver.form();
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.retransmissions, 0);
  EXPECT_EQ(session.key(), oracle_key(session));
  EXPECT_GT(driver.copies_dropped(), 0U);
  EXPECT_EQ(session.network().dropped(), driver.copies_dropped());
}

TEST(FormUnderLoss, KeysStillAgreeAcrossSchemes) {
  for (const Scheme scheme : {Scheme::kBdEcdsa, Scheme::kSsn}) {
    GroupSession session(test_authority(), scheme, make_ids(4), /*seed=*/11);
    sim::Scheduler scheduler;
    sim::ProtocolDriver driver(scheduler, {.link = test::uniform_loss(0.10)}, /*seed=*/11);
    driver.attach(session);
    ASSERT_TRUE(driver.form().success) << scheme_name(scheme);
    EXPECT_GT(driver.copies_dropped(), 0U) << scheme_name(scheme);
    EXPECT_EQ(session.key(), oracle_key(session));
  }
}

TEST(FormValidation, RejectsTooSmallGroups) {
  EXPECT_THROW(GroupSession(test_authority(), Scheme::kProposed, {1}, 1),
               std::invalid_argument);
}

TEST(FormTraffic, MessageCountsMatchTable1) {
  // Each member transmits 2 and receives 2(n-1) messages (Table 1).
  const std::size_t n = 5;
  for (const Scheme scheme : {Scheme::kProposed, Scheme::kBdSok, Scheme::kBdEcdsa,
                              Scheme::kBdDsa, Scheme::kSsn}) {
    GroupSession session(test_authority(), scheme, make_ids(n), 3);
    ASSERT_TRUE(session.form().success) << scheme_name(scheme);
    for (const std::uint32_t id : session.member_ids()) {
      const auto& ledger = session.ledger(id);
      EXPECT_EQ(ledger.tx_messages, 2U) << scheme_name(scheme);
      EXPECT_EQ(ledger.rx_messages, 2 * (n - 1)) << scheme_name(scheme);
    }
  }
}

TEST(FormKeyMaterial, KeysDifferAcrossSeedsAndRuns) {
  // Same seed + same ids -> identical ephemerals by design (deterministic
  // replay), even across schemes; different seeds must diverge.
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(3), 21);
  GroupSession b(test_authority(), Scheme::kBdEcdsa, make_ids(3), 21);
  ASSERT_TRUE(a.form().success);
  ASSERT_TRUE(b.form().success);
  EXPECT_EQ(a.key(), b.key());  // deterministic replay property

  GroupSession c(test_authority(), Scheme::kProposed, make_ids(3), 22);
  ASSERT_TRUE(c.form().success);
  EXPECT_NE(a.key(), c.key());

  // Re-forming the same session refreshes the key (DRBG stream advances).
  const BigInt first = a.key();
  ASSERT_TRUE(a.form().success);
  EXPECT_NE(a.key(), first);
}

// --- Lazy baseline credentials -------------------------------------------

constexpr std::uint64_t kLazySeed = 8080;

// Everything observable about a proposed-scheme session across form, join
// and leave: per op the key, rounds, retransmissions and bits sent; then
// every member's GQ secret.
std::vector<BigInt> proposed_transcript(Authority& authority) {
  GroupSession session(authority, Scheme::kProposed, make_ids(5, 400), /*seed=*/31);
  std::vector<BigInt> out;
  auto record = [&](const RunResult& r) {
    EXPECT_TRUE(r.success);
    out.push_back(r.key);
    out.push_back(BigInt{static_cast<std::uint64_t>(r.rounds)});
    out.push_back(BigInt{static_cast<std::uint64_t>(r.retransmissions)});
    std::uint64_t tx_bits = 0;
    for (const MemberCtx& m : session.members()) tx_bits += m.ledger.tx_bits;
    out.push_back(BigInt{tx_bits});
  };
  record(session.form());
  record(session.join(499));
  record(session.leave(402));
  for (const MemberCtx& m : session.members()) out.push_back(m.cred.gq_secret);
  return out;
}

TEST(LazyBaselines, ProposedRunIgnoresWhichBaselinesWereBuilt) {
  Authority fresh(SecurityProfile::kTest, kLazySeed);
  const std::vector<BigInt> reference = proposed_transcript(fresh);
  for (const Scheme baseline : {Scheme::kBdSok, Scheme::kBdDsa, Scheme::kBdEcdsa}) {
    Authority authority(SecurityProfile::kTest, kLazySeed);
    GroupSession first(authority, baseline, make_ids(3, 300), /*seed=*/5);
    ASSERT_TRUE(first.form().success) << scheme_name(baseline);
    EXPECT_EQ(proposed_transcript(authority), reference) << scheme_name(baseline);
  }
}

TEST(LazyBaselines, BaselinesWorkInEitherBuildOrder) {
  const std::vector<Scheme> forward{Scheme::kBdSok, Scheme::kBdDsa, Scheme::kBdEcdsa};
  const std::vector<Scheme> backward(forward.rbegin(), forward.rend());
  // Per scheme, the first member's credential: a baseline's substream must
  // not depend on the order the baselines were built in.
  std::map<Scheme, BigInt> cred_value;
  for (const auto& order : {forward, backward}) {
    Authority authority(SecurityProfile::kTest, kLazySeed);
    for (const Scheme scheme : order) {
      GroupSession session(authority, scheme, make_ids(4, 500), /*seed=*/17);
      ASSERT_TRUE(session.form().success) << scheme_name(scheme);
      ASSERT_TRUE(session.join(560).success) << scheme_name(scheme);
      ASSERT_TRUE(session.leave(501).success) << scheme_name(scheme);
      EXPECT_EQ(session.key(), oracle_key(session)) << scheme_name(scheme);

      const MemberCredentials& cred = session.members().front().cred;
      const BigInt value = scheme == Scheme::kBdSok   ? cred.sok_secret.x
                           : scheme == Scheme::kBdDsa ? cred.dsa_cert.sig_s
                                                      : cred.ecdsa_cert.sig_s;
      EXPECT_FALSE(value.is_zero()) << scheme_name(scheme);
      const auto [it, inserted] = cred_value.emplace(scheme, value);
      if (!inserted) EXPECT_EQ(it->second, value) << scheme_name(scheme);
    }
  }
}

TEST(LazyBaselines, ProposedEnrollmentCostsOneExponentiation) {
  Authority authority(SecurityProfile::kTest, kLazySeed);
  for (const Scheme scheme : {Scheme::kProposed, Scheme::kSsn}) {
    const mpint::OpCounts before = mpint::op_counts();
    const MemberCredentials cred = authority.enroll(77, scheme);
    const mpint::OpCounts after = mpint::op_counts();
    // Extract's S_U = H(U)^d; no baseline is built or enrolled.
    EXPECT_EQ(after.exps - before.exps, 1U) << scheme_name(scheme);
    EXPECT_EQ(after.multi_exps - before.multi_exps, 0U) << scheme_name(scheme);

    const sig::GqParams& gq = authority.params().gq;
    EXPECT_EQ(cred.gq_identity.h, sig::gq_hash_id(gq, 77));
    EXPECT_EQ(authority.params().ctx_n->exp(cred.gq_secret, gq.e), cred.gq_identity.h);
  }
}

TEST(BdMath, Lemma1AndReconstruction) {
  const SystemParams& params = test_authority().params();
  hash::HmacDrbg rng(5, "bdmath");
  const std::size_t n = 7;
  std::vector<BigInt> r(n);
  std::vector<BigInt> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = mpint::random_range(rng, BigInt{1}, params.grp.q);
    z[i] = params.gpow(r[i]);
  }
  std::vector<BigInt> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = bd::compute_x(params.group(), z[(i + 1) % n], z[(i + n - 1) % n], r[i]);
  }
  EXPECT_TRUE(bd::lemma1_holds(params.group(), x));
  const BigInt expected = test::direct_key(params.group(), r);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bd::compute_key(params.group(), z, x, i, r[i]), expected) << "member " << i;
  }
  // Lemma 1 detects a corrupted X.
  x[2] = params.ctx_p->mul(x[2], params.grp.g);
  EXPECT_FALSE(bd::lemma1_holds(params.group(), x));
}

TEST(BdMath, RejectsDegenerateInputs) {
  const SystemParams& params = test_authority().params();
  std::vector<BigInt> one{BigInt{1}};
  EXPECT_THROW((void)test::direct_key(params.group(), one), std::invalid_argument);
  std::vector<BigInt> z(3, BigInt{1});
  std::vector<BigInt> x(2, BigInt{1});
  EXPECT_THROW((void)bd::compute_key(params.group(), z, x, 0, BigInt{1}), std::invalid_argument);
}

}  // namespace
}  // namespace idgka::gka
