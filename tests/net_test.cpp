// Broadcast-network simulator tests: delivery, byte accounting, drop
// accounting through a lossy link, payload container, shared-frame fan-out
// and byte-level adversaries.
#include "net/network.h"

#include <gtest/gtest.h>

#include "lossy_link.h"
#include "wire/codec.h"

namespace idgka::net {
namespace {

Message make_msg(std::uint32_t sender, std::size_t bits = 0) {
  Message m;
  m.sender = sender;
  m.type = "t";
  m.payload.put_u32("id", sender);
  m.declared_bits = bits;
  return m;
}

TEST(Payload, TypedAccessors) {
  Payload p;
  p.put_int("z", mpint::BigInt{42});
  p.put_blob("raw", {1, 2, 3});
  p.put_u32("id", 7);
  EXPECT_EQ(p.get_int("z"), mpint::BigInt{42});
  EXPECT_EQ(p.get_blob("raw").size(), 3U);
  EXPECT_EQ(p.get_u32("id"), 7U);
  EXPECT_TRUE(p.has_int("z"));
  EXPECT_FALSE(p.has_int("nope"));
  EXPECT_TRUE(p.has_u32("id"));
  EXPECT_FALSE(p.has_u32("z"));  // per-kind lookup: "z" is an int field
  EXPECT_FALSE(p.has_blob("id"));
  EXPECT_THROW((void)p.get_int("nope"), std::out_of_range);
  EXPECT_THROW((void)p.get_blob("nope"), std::out_of_range);
  EXPECT_THROW((void)p.get_u32("nope"), std::out_of_range);
}

TEST(Payload, MissingFieldErrorsNameTheFieldAndKind) {
  const Payload p;
  const auto expect_message = [](auto fn, const std::string& needle) {
    try {
      fn();
      FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("gone"), std::string::npos) << e.what();
    }
  };
  expect_message([&] { (void)p.get_int("gone"); }, "int");
  expect_message([&] { (void)p.get_blob("gone"); }, "blob");
  expect_message([&] { (void)p.get_u32("gone"); }, "u32");
}

TEST(Payload, WireBytesAccountsAllFields) {
  Payload p;
  EXPECT_EQ(p.wire_bytes(), 0U);
  p.put_u32("id", 1);
  EXPECT_EQ(p.wire_bytes(), 5U);
  p.put_blob("b", std::vector<std::uint8_t>(10));
  EXPECT_EQ(p.wire_bytes(), 5U + 13U);
  p.put_int("z", mpint::BigInt{0xFFFF});  // 2 bytes + 3 overhead
  EXPECT_EQ(p.wire_bytes(), 5U + 13U + 5U);
}

TEST(Message, DeclaredBitsOverrideSerializedSize) {
  Message m = make_msg(1);
  EXPECT_EQ(m.accounted_bits(), m.payload.wire_bytes() * 8);
  m.declared_bits = 2048;
  EXPECT_EQ(m.accounted_bits(), 2048U);
}

TEST(Network, BroadcastReachesGroupNotSender) {
  Network net;
  for (std::uint32_t id : {1U, 2U, 3U, 4U}) net.add_node(id);
  net.broadcast(make_msg(1, 100), {1, 2, 3});
  EXPECT_TRUE(net.drain_frames(1).empty());  // sender skipped
  EXPECT_EQ(net.drain_frames(3).size(), 1U);
  EXPECT_TRUE(net.drain_frames(4).empty());  // not in group
  const auto msgs = net.drain(2);
  ASSERT_EQ(msgs.size(), 1U);
  EXPECT_EQ(msgs[0].sender, 1U);
  EXPECT_TRUE(net.drain_frames(2).empty());  // drain removes
}

TEST(Network, UnicastRequiresRecipient) {
  Network net;
  net.add_node(1);
  net.add_node(2);
  Message m = make_msg(1, 64);
  EXPECT_THROW(net.unicast(m), std::invalid_argument);
  m.recipient = 2;
  net.unicast(m);
  EXPECT_EQ(net.drain_frames(2).size(), 1U);
}

TEST(Network, StatsCountBitsAndMessages) {
  Network net;
  for (std::uint32_t id : {1U, 2U, 3U}) net.add_node(id);
  net.broadcast(make_msg(1, 1000), {1, 2, 3});
  net.broadcast(make_msg(2, 500), {1, 2, 3});
  EXPECT_EQ(net.stats(1).tx_bits, 1000U);
  EXPECT_EQ(net.stats(1).rx_bits, 500U);
  EXPECT_EQ(net.stats(2).tx_bits, 500U);
  EXPECT_EQ(net.stats(2).rx_bits, 1000U);
  EXPECT_EQ(net.stats(3).rx_bits, 1500U);
  EXPECT_EQ(net.stats(3).rx_messages, 2U);
  const auto total = net.total_stats();
  EXPECT_EQ(total.tx_bits, 1500U);
  EXPECT_EQ(total.rx_bits, 3000U);  // two receivers per broadcast
}

TEST(Network, UnknownNodesRejected) {
  Network net;
  net.add_node(1);
  EXPECT_THROW(net.broadcast(make_msg(9), {1}), std::invalid_argument);
  EXPECT_THROW((void)net.drain(9), std::invalid_argument);
  EXPECT_THROW((void)net.stats(9), std::invalid_argument);
  EXPECT_THROW(net.broadcast(make_msg(1), {9}), std::invalid_argument);
}

TEST(Network, BroadcastSkipsSenderInGroup) {
  // Regression: a sender listed in its own receiver group is skipped — it
  // is charged tx exactly once and never receives or pays rx for its own
  // frame, on a lossless or a lossy link.
  Network net;
  net.add_node(1);
  net.add_node(2);
  const auto link = test::set_lossy_link(net, 0.5, /*seed=*/7);
  for (int i = 0; i < 50; ++i) net.broadcast(make_msg(1, 8), {1, 2});
  EXPECT_EQ(link->copies_offered(), 50U);  // only the copies addressed to 2
  EXPECT_GT(net.dropped(), 0U);
  EXPECT_EQ(net.stats(2).rx_messages + net.dropped(), 50U);
  EXPECT_TRUE(net.drain_frames(1).empty());
  EXPECT_EQ(net.stats(1).tx_messages, 50U);
  EXPECT_EQ(net.stats(1).rx_messages, 0U);
  EXPECT_EQ(net.stats(1).rx_bits, 0U);
  EXPECT_EQ(net.stats(1).dropped_messages, 0U);  // no copy ever addressed to 1
}

TEST(Network, DropObserverSeesEveryLoss) {
  Network net;
  net.add_node(1);
  net.add_node(2);
  const auto link = test::set_lossy_link(net, 0.5, /*seed=*/11);
  std::uint64_t observed = 0;
  std::uint64_t observed_bits = 0;
  net.set_drop_observer([&](const wire::Frame& f, std::uint32_t to) {
    ++observed;
    observed_bits += f.accounted_bits();
    EXPECT_EQ(to, 2U);
  });
  for (int i = 0; i < 100; ++i) net.broadcast(make_msg(1, 8), {2});
  EXPECT_GT(observed, 0U);
  EXPECT_EQ(observed, net.dropped());
  EXPECT_EQ(observed, link->copies_dropped());
  EXPECT_EQ(observed_bits, net.dropped() * 8);
  // The receiver is not charged for dropped copies, but they are counted.
  EXPECT_EQ(net.stats(2).rx_messages + net.dropped(), 100U);
  EXPECT_EQ(net.stats(2).dropped_messages, net.dropped());
  EXPECT_EQ(net.total_stats().dropped_messages, net.dropped());
}

TEST(Network, TransportInterceptsAndDepositDelivers) {
  Network net;
  net.add_node(1);
  net.add_node(2);
  std::vector<std::pair<wire::Frame, std::uint32_t>> in_flight;
  net.set_transport(
      [&](const wire::Frame& f, std::uint32_t to) { in_flight.emplace_back(f, to); });

  net.broadcast(make_msg(1, 64), {2});
  EXPECT_EQ(net.stats(2).rx_messages, 0U);  // intercepted, not delivered
  EXPECT_EQ(net.stats(1).tx_bits, 64U);  // sender charged at hand-off
  ASSERT_EQ(in_flight.size(), 1U);
  EXPECT_EQ(in_flight[0].first.sender(), 1U);

  net.deposit(in_flight[0].first, in_flight[0].second);
  EXPECT_EQ(net.stats(2).rx_messages, 1U);
  EXPECT_EQ(net.stats(2).rx_bits, 64U);
  const auto msgs = net.drain(2);
  ASSERT_EQ(msgs.size(), 1U);  // deposited frame decodes at the receiver
  EXPECT_EQ(msgs[0].sender, 1U);
  EXPECT_EQ(msgs[0].payload.get_u32("id"), 1U);

  // A receiver that departed while the copy was in flight is a drop, not
  // an error.
  net.broadcast(make_msg(1, 64), {2});
  net.remove_node(2);
  ASSERT_EQ(in_flight.size(), 2U);
  net.deposit(in_flight[1].first, in_flight[1].second);
  EXPECT_EQ(net.dropped(), 1U);
}

TEST(Network, BroadcastSharesOneFrameAcrossReceiversAndEncodedBits) {
  // The tentpole invariant: one encode per broadcast, every in-flight copy
  // an O(1) reference to the same buffer.
  Network net;
  for (std::uint32_t id = 1; id <= 5; ++id) net.add_node(id);
  std::vector<wire::Frame> copies;
  net.set_transport([&](const wire::Frame& f, std::uint32_t) { copies.push_back(f); });
  wire::Frame sniffed;
  net.set_frame_sniffer([&](const wire::Frame& f) { sniffed = f; });

  Message m = make_msg(1);
  m.payload.put_int("z", mpint::BigInt::from_hex("deadbeefcafef00d1234"));
  net.broadcast(m, {1, 2, 3, 4, 5});
  ASSERT_EQ(copies.size(), 4U);
  for (const wire::Frame& f : copies) {
    EXPECT_EQ(f.data(), copies[0].data());  // same buffer, not a copy
  }
  EXPECT_EQ(sniffed.data(), copies[0].data());
  EXPECT_GE(copies[0].use_count(), 5L);

  // Codec-true accounting alongside the paper model.
  EXPECT_EQ(net.stats(1).tx_encoded_bits, copies[0].size_bits());
  EXPECT_EQ(net.stats(1).tx_bits, m.accounted_bits());
  net.deposit(copies[0], 2);
  EXPECT_EQ(net.stats(2).rx_encoded_bits, copies[0].size_bits());
}

TEST(Network, FrameTamperRxChargedFromOriginalFrame) {
  // Regression (and byte-level extension) of the tamper accounting rule: a
  // hook that truncates — or grows — the copy still charges rx from the
  // frame as transmitted.
  Network net;
  for (std::uint32_t id = 1; id <= 4; ++id) net.add_node(id);
  net.set_frame_tamper_hook([](std::vector<std::uint8_t>& bytes, std::uint32_t to) {
    if (to == 2) bytes.resize(bytes.size() / 2);  // truncation attack on node 2
    if (to == 4) bytes.insert(bytes.end(), 512, 0xAB);  // growth attack on node 4
    return true;
  });
  Message m = make_msg(1, /*bits=*/1000);
  m.payload.put_int("z", mpint::BigInt::from_hex("112233445566778899aabbccddeeff"));
  net.broadcast(m, {2, 3, 4});

  // Every receiver paid rx for the full original frame...
  const std::uint64_t original_encoded = net.stats(1).tx_encoded_bits;
  for (const std::uint32_t to : {2U, 3U, 4U}) {
    EXPECT_EQ(net.stats(to).rx_bits, 1000U) << to;
    EXPECT_EQ(net.stats(to).rx_encoded_bits, original_encoded) << to;
  }

  // ...but the truncated and the grown copies fail the strict decode and
  // are discarded.
  EXPECT_TRUE(net.drain(2).empty());
  EXPECT_EQ(net.stats(2).corrupted_frames, 1U);
  EXPECT_TRUE(net.drain(4).empty());
  EXPECT_EQ(net.stats(4).corrupted_frames, 1U);
  EXPECT_EQ(net.corrupted(), 2U);
  const auto intact = net.drain(3);
  ASSERT_EQ(intact.size(), 1U);
  EXPECT_EQ(intact[0].payload.get_int("z"),
            mpint::BigInt::from_hex("112233445566778899aabbccddeeff"));
  EXPECT_EQ(net.stats(3).corrupted_frames, 0U);
}

TEST(Network, FrameTamperBitFlipDetectedAtDrain) {
  // Flipping one payload byte keeps the frame structurally valid only if
  // it misses every length field; flipping a length byte must be caught.
  // Either way the receiver never sees a silently-wrong message when the
  // flip lands in the frame structure.
  Network net;
  net.add_node(1);
  net.add_node(2);
  net.set_frame_tamper_hook([](std::vector<std::uint8_t>& bytes, std::uint32_t) {
    bytes[0] ^= 0xFF;  // destroy the magic byte
    return true;
  });
  net.broadcast(make_msg(1, 8), {2});
  EXPECT_EQ(net.stats(2).rx_messages, 1U);  // received...
  EXPECT_TRUE(net.drain(2).empty());  // ...discarded by the strict decoder
  EXPECT_EQ(net.stats(2).corrupted_frames, 1U);
}

TEST(Network, DrainFramesReturnsRawBytes) {
  Network net;
  net.add_node(1);
  net.add_node(2);
  net.broadcast(make_msg(1, 64), {2});
  auto frames = net.drain_frames(2);
  ASSERT_EQ(frames.size(), 1U);
  EXPECT_TRUE(net.drain_frames(2).empty());
  const Message m = wire::decode(frames[0]);
  EXPECT_EQ(m.sender, 1U);
  EXPECT_EQ(m.declared_bits, 64U);
  EXPECT_THROW((void)net.drain_frames(9), std::invalid_argument);
}

TEST(Network, RoundBarrierHook) {
  Network net;
  net.await_delivery();  // no barrier installed: no-op
  int barrier_calls = 0;
  net.set_round_barrier([&] { ++barrier_calls; });
  net.await_delivery();
  EXPECT_EQ(barrier_calls, 1);
}

TEST(Network, RemoveNodeDropsInboxAndStats) {
  Network net;
  net.add_node(1);
  net.add_node(2);
  net.add_node(3);
  net.broadcast(make_msg(1, 8), {1, 2, 3});
  ASSERT_EQ(net.stats(2).rx_messages, 1U);

  net.remove_node(2);
  EXPECT_FALSE(net.has_node(2));
  EXPECT_EQ(net.node_count(), 2U);
  EXPECT_THROW((void)net.drain_frames(2), std::invalid_argument);
  EXPECT_THROW((void)net.stats(2), std::invalid_argument);
  // Departed members no longer count toward the totals...
  EXPECT_EQ(net.total_stats().rx_messages, 1U);
  // ...and broadcasting to a removed recipient is an error.
  EXPECT_THROW(net.broadcast(make_msg(1, 8), {2, 3}), std::invalid_argument);
  // Removing an unknown node is a no-op; re-adding starts fresh.
  net.remove_node(99);
  net.add_node(2);
  EXPECT_EQ(net.stats(2).rx_messages, 0U);
}

}  // namespace
}  // namespace idgka::net
