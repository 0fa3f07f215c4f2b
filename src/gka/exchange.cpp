#include "gka/exchange.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"

namespace idgka::gka {

RoundResult exchange_round(net::Network& network, const std::vector<RoundSend>& sends,
                           const std::vector<std::uint32_t>& receivers) {
  // Collection policy: a timed medium can deliver a straggler duplicate
  // from an earlier round during this round's drain window; collecting an
  // off-label message would feed the wrong payload schema into the
  // protocol, so those are ignored and retransmission covers the gap. A
  // straggler carrying the *same* label (a previous operation's run of this
  // round) is indistinguishable to a real receiver and is deliberately
  // collected — the paper's protocols bind freshness into the challenge
  // verification, which rejects the stale data and fails the run rather
  // than agreeing on a mixed-epoch key.
  std::map<std::uint32_t, const std::string*> round_label;
  for (const RoundSend& send : sends) {
    round_label.emplace(send.message.sender, &send.message.type);
  }
  OBS_COUNT("engine.rounds", 1);
  OBS_SPAN_ARG("gka.round", "gka", sends.size());

  RoundResult result;
  const auto missing_somewhere = [&](const RoundSend& send) {
    const net::Message& msg = send.message;
    for (const std::uint32_t rx : receivers) {
      if (msg.sender == rx) continue;
      const bool expected =
          msg.recipient.has_value()
              ? *msg.recipient == rx
              : std::find(send.group.begin(), send.group.end(), rx) != send.group.end();
      if (!expected) continue;
      const auto it = result.collected.find(rx);
      if (it == result.collected.end() || !it->second.contains(msg.sender)) return true;
    }
    return false;
  };

  for (int attempt = 0;;) {
    bool sent_any = false;
    for (const RoundSend& send : sends) {
      if (!missing_somewhere(send)) continue;
      sent_any = true;
      if (attempt > 0) {
        ++result.retransmissions;
        OBS_COUNT("engine.retransmissions", 1);
      }
      if (send.message.recipient.has_value()) {
        network.unicast(send.message);
      } else {
        network.broadcast(send.message, send.group);
      }
    }
    if (!sent_any) {
      result.complete = true;
      break;
    }
    ++attempt;
    OBS_INSTANT_ARG("round.transmit", "gka", attempt);
    network.await_delivery();

    for (const std::uint32_t rx : receivers) {
      for (net::Message& msg : network.drain(rx)) {
        const auto it = round_label.find(msg.sender);
        if (it == round_label.end() || *it->second != msg.type) continue;  // straggler
        result.collected[rx].try_emplace(msg.sender, std::move(msg));
      }
    }
    OBS_INSTANT("round.drain", "gka");
    if (std::none_of(sends.begin(), sends.end(), missing_somewhere)) {
      result.complete = true;
      break;
    }
    if (attempt > kMaxRetransmitAttempts) break;  // incomplete after the budget
    OBS_INSTANT_ARG("round.retransmit", "gka", attempt);
  }
  return result;
}

}  // namespace idgka::gka
