#include "net/network.h"

#include <cstdio>
#include <stdexcept>

#include "obs/trace.h"

namespace idgka::net {

void Network::add_node(std::uint32_t id) {
  inboxes_.try_emplace(id);
  stats_.try_emplace(id);
}

void Network::remove_node(std::uint32_t id) {
  inboxes_.erase(id);
  stats_.erase(id);
}

bool Network::has_node(std::uint32_t id) const { return inboxes_.contains(id); }

void Network::record_drop(const wire::Frame& frame, std::uint32_t to) {
  ++dropped_;
  OBS_COUNT("net.drops", 1);
#if IDGKA_OBS
  {
    // Per-directed-link drop dimension. Drops are the rare path by
    // construction, so the labeled lookup's mutex cost is acceptable here;
    // the registry's per-family cap coalesces n^2 link tails.
    char link[24];
    std::snprintf(link, sizeof link, "%u->%u", frame.sender(), to);
    OBS_COUNT_LABELED("net.drop", link, 1);
  }
#endif
  OBS_INSTANT_ARG("net.drop", "net", to);
  const auto it = stats_.find(to);
  if (it != stats_.end()) ++it->second.dropped_messages;
  if (drop_observer_) drop_observer_(frame, to);
}

void Network::enqueue(std::vector<wire::Frame>& inbox, const wire::Frame& frame,
                      std::uint32_t to) {
  // rx is charged from the frame as transmitted — an adversary mutating the
  // copy below does not change what the radio already received.
  auto& st = stats_[to];
  ++st.rx_messages;
  st.rx_bits += frame.accounted_bits();
  st.rx_encoded_bits += frame.size_bits();
  OBS_COUNT("net.rx_copies", 1);
  OBS_COUNT("net.rx_encoded_bits", frame.size_bits());

  if (!frame_tamper_) {
    inbox.push_back(frame);  // shared buffer; O(1)
    return;
  }
  std::vector<std::uint8_t> bytes(frame.bytes().begin(), frame.bytes().end());
  if (!frame_tamper_(bytes, to)) return;  // jammed
  inbox.emplace_back(std::move(bytes), frame.accounted_bits(), frame.sender());
}

void Network::deliver(const wire::Frame& frame, std::uint32_t to) {
  auto it = inboxes_.find(to);
  if (it == inboxes_.end()) throw std::invalid_argument("Network: unknown recipient");
  enqueue(it->second, frame, to);
}

void Network::deposit(const wire::Frame& frame, std::uint32_t to) {
  OBS_INSTANT_ARG("net.deposit", "net", to);
  auto it = inboxes_.find(to);
  if (it == inboxes_.end()) {
    // Receiver departed while the copy was in flight: a timed medium cannot
    // un-send, so the copy is accounted as lost rather than an error.
    record_drop(frame, to);
    return;
  }
  enqueue(it->second, frame, to);
}

wire::Frame Network::encode_and_charge(const Message& msg) {
  wire::Frame frame = wire::encode(msg);
#ifndef NDEBUG
  // Every protocol message must round-trip bit-exact through the codec,
  // and its paper accounting must be a declared override or the size
  // model — never a silent third value.
  wire::assert_roundtrip(msg, frame);
#endif
  if (frame_sniffer_) frame_sniffer_(frame);
  auto& st = stats_[msg.sender];
  ++st.tx_messages;
  st.tx_bits += frame.accounted_bits();
  st.tx_encoded_bits += frame.size_bits();
  OBS_COUNT("net.tx_frames", 1);
  OBS_COUNT("net.tx_encoded_bits", frame.size_bits());
  return frame;
}

void Network::broadcast(const Message& msg, const std::vector<std::uint32_t>& group) {
  if (!has_node(msg.sender)) throw std::invalid_argument("Network: unknown sender");
  OBS_SPAN_ARG("net.broadcast", "net", group.size());
  const wire::Frame frame = encode_and_charge(msg);  // encoded exactly once
  for (const std::uint32_t to : group) {
    if (to == msg.sender) continue;  // self-delivery never happens
    if (transport_) {
      transport_(frame, to);
    } else {
      deliver(frame, to);
    }
  }
}

void Network::unicast(Message msg) {
  if (!has_node(msg.sender)) throw std::invalid_argument("Network: unknown sender");
  if (!msg.recipient.has_value()) {
    throw std::invalid_argument("Network: unicast requires a recipient");
  }
  OBS_SPAN_ARG("net.unicast", "net", *msg.recipient);
  const wire::Frame frame = encode_and_charge(msg);
  if (transport_) {
    transport_(frame, *msg.recipient);
  } else {
    deliver(frame, *msg.recipient);
  }
}

std::vector<Message> Network::drain(std::uint32_t node) {
  std::vector<wire::Frame> frames = drain_frames(node);
  std::vector<Message> out;
  out.reserve(frames.size());
  for (const wire::Frame& frame : frames) {
    try {
      out.push_back(wire::decode(frame));
    } catch (const wire::DecodeError&) {
      // Bad checksum in a real radio: the frame was received (rx charged at
      // enqueue) but is discarded here, and retransmission covers the gap.
      ++corrupted_;
      ++stats_[node].corrupted_frames;
    }
  }
  return out;
}

std::vector<wire::Frame> Network::drain_frames(std::uint32_t node) {
  auto it = inboxes_.find(node);
  if (it == inboxes_.end()) throw std::invalid_argument("Network: unknown node");
  std::vector<wire::Frame> out;
  out.swap(it->second);
  return out;
}

std::size_t Network::pending(std::uint32_t node) const {
  const auto it = inboxes_.find(node);
  return it == inboxes_.end() ? 0 : it->second.size();
}

const TrafficStats& Network::stats(std::uint32_t node) const {
  const auto it = stats_.find(node);
  if (it == stats_.end()) throw std::invalid_argument("Network: unknown node");
  return it->second;
}

TrafficStats Network::total_stats() const {
  TrafficStats total;
  for (const auto& [id, st] : stats_) {
    total.tx_messages += st.tx_messages;
    total.rx_messages += st.rx_messages;
    total.tx_bits += st.tx_bits;
    total.rx_bits += st.rx_bits;
    total.tx_encoded_bits += st.tx_encoded_bits;
    total.rx_encoded_bits += st.rx_encoded_bits;
    total.dropped_messages += st.dropped_messages;
    total.corrupted_frames += st.corrupted_frames;
  }
  return total;
}

}  // namespace idgka::net
