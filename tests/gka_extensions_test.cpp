// Extension features: key confirmation round, refresh-all countermeasure
// cost, parallel-runner determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "gka/complexity.h"
#include "gka/proposed.h"
#include "gka/session.h"
#include "message_tamper.h"
#include "net/parallel.h"

namespace idgka::gka {
namespace {

Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/4242);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

TEST(KeyConfirmation, AddsOneRoundAndStillAgrees) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5, 4000), 1);
  session.set_key_confirmation(true);
  const RunResult result = session.form();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 3);  // 2 GKA rounds + confirmation
  for (const auto& m : session.members()) EXPECT_EQ(m.key, session.key());
  // Hash work recorded: 2 blocks own tag + 2 per verified peer.
  EXPECT_EQ(session.ledger(4000).count(energy::Op::kHashBlock), 2U + 2U * 4U);
}

TEST(KeyConfirmation, TamperedTagAbortsTheRun) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4, 4100), 2);
  session.set_key_confirmation(true);
  test::set_message_tamper(session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
    if (msg.type == "proposed-kc" && msg.sender == 4102) {
      auto tag = msg.payload.get_blob("tag");
      tag[0] ^= 0xFF;
      net::Payload fresh;
      fresh.put_blob("tag", tag);
      msg.payload = fresh;
    }
    return true;
  });
  EXPECT_FALSE(session.form().success);
}

TEST(KeyConfirmation, OffByDefault) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(3, 4200), 3);
  const RunResult result = session.form();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 2);
  EXPECT_EQ(session.ledger(4200).count(energy::Op::kHashBlock), 0U);
}

TEST(RefreshAllCountermeasure, CostsExtraCommitmentsOnly) {
  // Default policy: even survivors reuse tau. Countermeasure: they refresh
  // (one extra mod-exp inside SignGen... the commitment t' = tau'^e) and
  // broadcast a Round-1 message.
  const std::size_t n = 6;
  GroupSession base(test_authority(), Scheme::kProposed, make_ids(n, 4300), 4);
  GroupSession hard(test_authority(), Scheme::kProposed, make_ids(n, 4400), 4);
  hard.set_refresh_all_commitments(true);
  ASSERT_TRUE(base.form().success);
  ASSERT_TRUE(hard.form().success);
  base.reset_ledgers();
  hard.reset_ledgers();
  ASSERT_TRUE(base.leave(base.member_ids().back()).success);
  ASSERT_TRUE(hard.leave(hard.member_ids().back()).success);

  // Even-indexed survivor (position 2): with the countermeasure it also
  // broadcasts a Round-1 refresh (one extra tx + one extra z mod-exp).
  const auto& l_base = base.ledger(base.member_ids()[1]);
  const auto& l_hard = hard.ledger(hard.member_ids()[1]);
  EXPECT_EQ(l_base.count(energy::Op::kModExp) + 1, l_hard.count(energy::Op::kModExp));
  EXPECT_EQ(l_base.tx_messages + 1, l_hard.tx_messages);
  // Keys still agree and stay consistent.
  for (const auto& m : hard.members()) EXPECT_EQ(m.key, hard.key());
}

TEST(ParallelRunner, SingleAndMultiThreadedRunsIdentical) {
  // Determinism across schedules: the parallel verification phase cannot
  // change any output (per-node DRBGs, share-nothing writes).
  GroupSession a(test_authority(), Scheme::kProposed, make_ids(8, 4500), 5);
  ASSERT_TRUE(a.form().success);
  // worker_count() is latched once; instead exercise determinism across
  // repeated multi-threaded runs.
  for (int i = 0; i < 3; ++i) {
    GroupSession b(test_authority(), Scheme::kProposed, make_ids(8, 4500), 5);
    ASSERT_TRUE(b.form().success);
    EXPECT_EQ(a.key(), b.key());
  }
}

TEST(ParallelRunner, ForEachCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  net::parallel_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Zero and single-element cases.
  net::parallel_for_each(0, [&](std::size_t) { FAIL(); });
  int single = 0;
  net::parallel_for_each(1, [&](std::size_t) { ++single; });
  EXPECT_EQ(single, 1);
}

TEST(ParallelRunner, PropagatesExceptions) {
  EXPECT_THROW(net::parallel_for_each(64,
                                      [&](std::size_t i) {
                                        if (i == 33) throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
  // Every chunk throwing still rethrows exactly one exception.
  EXPECT_THROW(net::parallel_for_each(64, [&](std::size_t) { throw std::logic_error("all"); }),
               std::logic_error);
  // The pool keeps serving calls after a failed one.
  std::vector<std::atomic<int>> hits(97);
  net::parallel_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ConcurrentCallersEachCoverTheirRange) {
  // Plain threads calling at once (as the runs of one executor batch do)
  // share the pool; every call still visits each of its indices exactly
  // once.
  constexpr int kCallers = 8;
  constexpr int kCalls = 500;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(1 + (call + t) % 40));
        net::parallel_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits) {
          if (h.load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelRunner, NestedCallsComplete) {
  constexpr std::size_t kOuter = 9;
  constexpr std::size_t kInner = 13;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  net::parallel_for_each(kOuter, [&](std::size_t i) {
    net::parallel_for_each(kInner, [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace idgka::gka
