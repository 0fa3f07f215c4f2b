// Reliable-round exchange tests: completion, retransmission accounting,
// unicast routing, the fixed retransmission budget, and the round loop's
// waits (one Network::await_delivery() per transmit attempt, counted
// through the round barrier). Lossy cases run over tests/lossy_link.h.
#include "gka/exchange.h"

#include <gtest/gtest.h>

#include "lossy_link.h"
#include "wire/codec.h"

namespace idgka::gka {
namespace {

net::Message msg_from(std::uint32_t sender, const char* type = "t") {
  net::Message m;
  m.sender = sender;
  m.type = type;
  m.payload.put_u32("id", sender);
  m.declared_bits = 64;
  return m;
}

std::vector<std::uint32_t> nodes(net::Network& net, std::size_t n) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 1; i <= n; ++i) {
    net.add_node(i);
    ids.push_back(i);
  }
  return ids;
}

TEST(ExchangeRound, LosslessBroadcastCompletesFirstAttempt) {
  net::Network net;
  const auto ids = nodes(net, 4);
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.retransmissions, 0);
  for (const auto rx : ids) {
    EXPECT_EQ(r.collected.at(rx).size(), 3U);  // everyone except self
    EXPECT_FALSE(r.collected.at(rx).contains(rx));
  }
}

TEST(ExchangeRound, LosslessRoundAwaitsExactlyOnce) {
  net::Network net;
  const auto ids = nodes(net, 4);
  int awaits = 0;
  net.set_round_barrier([&] { ++awaits; });
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  EXPECT_EQ(awaits, 1);  // everything on the air, one wait, drained complete
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.retransmissions, 0);
  for (const auto rx : ids) EXPECT_EQ(r.collected.at(rx).size(), 3U);
}

TEST(ExchangeRound, EmptyRoundCompletesWithoutAwaiting) {
  net::Network net;
  const auto ids = nodes(net, 2);
  int awaits = 0;
  net.set_round_barrier([&] { ++awaits; });
  const std::vector<RoundSend> sends;  // nothing to transmit
  const RoundResult r = exchange_round(net, sends, ids);
  EXPECT_EQ(awaits, 0);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.retransmissions, 0);
}

TEST(ExchangeRound, LossyRoundAwaitsOncePerAttempt) {
  net::Network net;
  const auto ids = nodes(net, 5);
  test::set_lossy_link(net, 0.4, /*seed=*/7);
  std::size_t transmitted = 0;
  net.set_frame_sniffer([&](const wire::Frame&) { ++transmitted; });
  // Transmissions on the air at each await: every attempt transmits at
  // least one frame, then waits exactly once.
  std::vector<std::size_t> tx_at_await;
  net.set_round_barrier([&] { tx_at_await.push_back(transmitted); });
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(net.dropped(), 0U);
  EXPECT_GT(r.retransmissions, 0);
  ASSERT_GT(tx_at_await.size(), 1U);
  EXPECT_EQ(tx_at_await.front(), sends.size());  // first attempt sends everyone
  for (std::size_t i = 1; i < tx_at_await.size(); ++i) {
    EXPECT_GT(tx_at_await[i], tx_at_await[i - 1]) << "await " << i << " without a transmit";
  }
  // Nothing goes on the air after the last wait, and every frame past the
  // first attempt is a counted retransmission.
  EXPECT_EQ(tx_at_await.back(), transmitted);
  EXPECT_EQ(transmitted, sends.size() + static_cast<std::size_t>(r.retransmissions));
}

TEST(ExchangeRound, UnicastOnlyReachesRecipient) {
  net::Network net;
  const auto ids = nodes(net, 3);
  net::Message m = msg_from(1);
  m.recipient = 3;
  const RoundResult r = exchange_round(net, {RoundSend{m, {}}}, ids);
  ASSERT_TRUE(r.complete);
  EXPECT_TRUE(r.collected.at(3).contains(1));
  EXPECT_TRUE(!r.collected.contains(2) || r.collected.at(2).empty());
}

TEST(ExchangeRound, LossTriggersRetransmissionUntilComplete) {
  net::Network net;
  const auto ids = nodes(net, 5);
  test::set_lossy_link(net, 0.4, /*seed=*/7);
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.retransmissions, 0);
  for (const auto rx : ids) EXPECT_EQ(r.collected.at(rx).size(), 4U);
  EXPECT_GT(net.dropped(), 0U);
}

TEST(ExchangeRound, RetryCapGivesIncompleteResult) {
  net::Network net;
  const auto ids = nodes(net, 3);
  // A byte-level adversary jams every frame from node 2 to node 3,
  // selecting its target from the frame header alone.
  net.set_frame_tamper_hook([](std::vector<std::uint8_t>& bytes, std::uint32_t rx) {
    return !(wire::decode(std::span<const std::uint8_t>(bytes)).sender == 2 && rx == 3);
  });
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  EXPECT_FALSE(r.complete);
  // Only node 2's message is ever missing, so every attempt after the first
  // is one retransmission, and the loop spends exactly the budget. The
  // timed baselines were recorded with a budget of 32.
  EXPECT_EQ(r.retransmissions, kMaxRetransmitAttempts);
  EXPECT_EQ(kMaxRetransmitAttempts, 32);
  // Other traffic still went through.
  EXPECT_TRUE(r.collected.at(3).contains(1));
}

TEST(ExchangeRound, FirstCopyWinsOnDuplicates) {
  net::Network net;
  const auto ids = nodes(net, 4);
  test::set_lossy_link(net, 0.3, /*seed=*/21);
  std::vector<RoundSend> sends;
  for (const auto id : ids) sends.push_back(RoundSend{msg_from(id), ids});
  const RoundResult r = exchange_round(net, sends, ids);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(net.dropped(), 0U);
  EXPECT_GT(r.retransmissions, 0);
  // Retransmissions rebroadcast to all; receivers keep exactly one copy per
  // sender even though the radio delivered (and charged) several.
  for (const auto rx : ids) EXPECT_EQ(r.collected.at(rx).size(), 3U);
  std::uint64_t rx_msgs = 0;
  for (const auto rx : ids) rx_msgs += net.stats(rx).rx_messages;
  EXPECT_GT(rx_msgs, 12U);  // more deliveries than kept copies
}

TEST(ExchangeRound, SenderOrderPreserved) {
  // The proposed protocol needs U_1 to transmit last; exchange_round sends
  // in the given order within each attempt.
  net::Network net;
  const auto ids = nodes(net, 3);
  std::vector<std::uint32_t> tx_order;
  net.set_frame_sniffer([&](const wire::Frame& f) { tx_order.push_back(f.sender()); });
  std::vector<RoundSend> sends;
  sends.push_back(RoundSend{msg_from(2), ids});
  sends.push_back(RoundSend{msg_from(3), ids});
  sends.push_back(RoundSend{msg_from(1), ids});  // controller last
  ASSERT_TRUE(exchange_round(net, sends, ids).complete);
  EXPECT_EQ(tx_order, (std::vector<std::uint32_t>{2, 3, 1}));
}

}  // namespace
}  // namespace idgka::gka
