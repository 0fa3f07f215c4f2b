// ING (Ingemarsson et al. 1982) extension-baseline tests.
#include <gtest/gtest.h>

#include "energy/profiles.h"
#include "gka/ing.h"
#include "gka/session.h"
#include "lossy_link.h"

namespace idgka::gka {
namespace {

Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/777);
  return authority;
}

std::vector<MemberCtx> make_members(std::size_t n, std::uint64_t seed) {
  std::vector<MemberCtx> members;
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(
        make_member(test_authority().enroll(3000 + static_cast<std::uint32_t>(i)), seed));
  }
  return members;
}

/// Per-member ledger the ING paper accounting predicts at size n: n
/// exponentiations (initial z + one per round) and n-1 unicast messages
/// each way of an id plus a group element.
energy::Ledger ing_ledger(std::size_t n) {
  energy::Ledger l;
  l.record(energy::Op::kModExp, n);
  const std::size_t msg_bits = energy::wire::kIdBits + energy::wire::kGroupElementBits;
  l.tx_messages = n - 1;
  l.rx_messages = n - 1;
  l.tx_bits = (n - 1) * msg_bits;
  l.rx_bits = (n - 1) * msg_bits;
  return l;
}

class IngTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IngTest, AgreesOnProductKey) {
  const std::size_t n = GetParam();
  auto members = make_members(n, 10 + n);
  net::Network network;
  for (const auto& m : members) network.add_node(m.cred.id);

  const RunResult result = run_ing(test_authority().params(), members, network);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, static_cast<int>(n - 1));

  // Oracle: K = g^{prod r_i mod q}.
  const SystemParams& params = test_authority().params();
  BigInt exp{1};
  for (const auto& m : members) exp = mpint::mod_mul(exp, m.r, params.grp.q);
  const BigInt oracle = params.gpow(exp);
  for (const auto& m : members) EXPECT_EQ(m.key, oracle);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IngTest, ::testing::Values(2, 3, 4, 7, 10));

TEST(IngCounts, MatchFormulaLedger) {
  const std::size_t n = 6;
  auto members = make_members(n, 55);
  net::Network network;
  for (const auto& m : members) network.add_node(m.cred.id);
  ASSERT_TRUE(run_ing(test_authority().params(), members, network).success);

  // Traffic is tracked by the network (GroupSession moves it into ledgers);
  // op counts live in the member ledgers directly.
  const energy::Ledger want = ing_ledger(n);
  for (const auto& m : members) {
    EXPECT_EQ(m.ledger.count(energy::Op::kModExp), want.count(energy::Op::kModExp));
    const auto& stats = network.stats(m.cred.id);
    EXPECT_EQ(stats.tx_messages, want.tx_messages);
    EXPECT_EQ(stats.rx_messages, want.rx_messages);
  }
}

TEST(IngCounts, RoundsScaleLinearlyUnlikeBd) {
  // The structural contrast the paper's related-work section draws: ING
  // needs n-1 rounds where BD-family protocols need 2.
  auto members = make_members(9, 77);
  net::Network network;
  for (const auto& m : members) network.add_node(m.cred.id);
  const RunResult r = run_ing(test_authority().params(), members, network);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.rounds, 8);
}

TEST(IngUnderLoss, RetransmissionRecovers) {
  auto members = make_members(5, 88);
  net::Network network;
  for (const auto& m : members) network.add_node(m.cred.id);
  test::set_lossy_link(network, 0.1, /*seed=*/42);
  const RunResult r = run_ing(test_authority().params(), members, network);
  ASSERT_TRUE(r.success);
  EXPECT_GT(network.dropped(), 0U);
  EXPECT_GT(r.retransmissions, 0);
}

}  // namespace
}  // namespace idgka::gka
