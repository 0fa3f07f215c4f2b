// Reliable round exchange over the lossy broadcast network.
//
// The paper's protocols assume every member eventually holds every round
// message ("if equation (2) is incorrect, then all members will retransmit
// again"). exchange_round runs one protocol round as a plain loop: transmit
// every send still missing at some receiver, Network::await_delivery(),
// drain every receiver's inbox, and check. Senders whose message failed to
// reach some receiver rebroadcast (the radio cost of every attempt is
// accounted) until all inboxes are complete or the retry cap is hit.
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
///
/// Retry-cap precedence (resolved once, via Network::effective_retry_cap):
/// a driver-installed Network::retry_cap() ALWAYS overrides the `max_retries`
/// argument; `max_retries` is only the default for networks no driver has
/// bounded. Every reliable loop in the codebase (this one and the cluster
/// rekey distribution) resolves its budget the same way.
[[nodiscard]] RoundResult exchange_round(net::Network& network,
                                         const std::vector<RoundSend>& sends,
                                         const std::vector<std::uint32_t>& receivers,
                                         int max_retries = 64);

}  // namespace idgka::gka
