// Reliable round exchange over the broadcast network.
//
// The paper's protocols assume every member eventually holds every round
// message ("if equation (2) is incorrect, then all members will retransmit
// again"). exchange_round runs one protocol round as a plain loop: transmit
// every send still missing at some receiver, Network::await_delivery(),
// drain every receiver's inbox, and check. Senders whose message failed to
// reach some receiver rebroadcast (the radio cost of every attempt is
// accounted) until all inboxes are complete or kMaxRetransmitAttempts is
// spent.
//
// await_delivery() is the round's only wait. A lockstep network delivers
// at transmit time, so it does nothing; under a timed driver it advances
// the virtual clock by one round timeout, and inside an engine-hosted
// ProtocolRun it parks the run so many groups' rounds interleave on one
// clock.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"

namespace idgka::gka {

/// Retransmission budget of every reliable loop (exchange_round and the
/// cluster rekey distribution): attempts after the first before the round
/// is given up as incomplete.
inline constexpr int kMaxRetransmitAttempts = 32;

/// One sender's contribution to a round.
struct RoundSend {
  net::Message message;
  /// Receiver set for the broadcast (ring or subgroup).
  std::vector<std::uint32_t> group;
};

/// Result of a reliable round: per-receiver, per-sender message map.
struct RoundResult {
  bool complete = false;
  int retransmissions = 0;
  /// collected[receiver][sender] = message.
  std::map<std::uint32_t, std::map<std::uint32_t, net::Message>> collected;
};

/// Executes one reliable broadcast round. `receivers` lists every node that
/// must end up with all messages addressed to it. A sender that is also a
/// receiver implicitly "has" its own message. Each attempt transmits in
/// `sends` order, awaits delivery once and drains `receivers` in order,
/// keeping the first copy of each (sender, receiver) pair that carries its
/// sender's round label.
[[nodiscard]] RoundResult exchange_round(net::Network& network,
                                         const std::vector<RoundSend>& sends,
                                         const std::vector<std::uint32_t>& receivers);

}  // namespace idgka::gka
