#include "gka/ing.h"

#include <stdexcept>

#include "energy/profiles.h"

namespace idgka::gka {

namespace {

using energy::Op;

}  // namespace

RunResult run_ing(const SystemParams& params, std::span<MemberCtx> members,
                  net::Network& network) {
  RunResult result;
  const std::size_t n = members.size();
  if (n < 2) throw std::invalid_argument("run_ing: need at least 2 members");

  std::vector<std::uint32_t> ring;
  ring.reserve(n);
  for (const MemberCtx& m : members) ring.push_back(m.cred.id);
  const std::size_t z_bits = params.element_bits();

  // Each member's current intermediate value: starts at g^{r_i}.
  std::vector<BigInt> inflight(n);
  for (std::size_t i = 0; i < n; ++i) {
    MemberCtx& m = members[i];
    m.ring = ring;
    m.z_map.clear();
    m.t_map.clear();
    m.r = mpint::random_range(*m.rng, BigInt{1}, params.grp.q);
    m.ledger.record(Op::kModExp);
    inflight[i] = params.gpow(m.r);
  }

  // Rounds 1..n-1: pass around the ring, exponentiating along the way.
  // In round k, member i forwards the value that originated at i-k+1.
  for (std::size_t round = 1; round < n; ++round) {
    std::vector<RoundSend> sends;
    sends.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      net::Message msg;
      msg.sender = members[i].cred.id;
      msg.recipient = ring[(i + 1) % n];
      msg.type = "ing-r" + std::to_string(round);
      msg.payload.put_int("v", inflight[i]);
      msg.declared_bits = energy::wire::kIdBits + z_bits;
      sends.push_back(RoundSend{std::move(msg), {}});
    }
    const RoundResult rr = exchange_round(network, sends, ring);
    result.retransmissions += rr.retransmissions;
    if (!rr.complete) return result;
    ++result.rounds;

    // Each member exponentiates what it received. In the final round this
    // is the key computation; before that, the value is forwarded on.
    std::vector<BigInt> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      MemberCtx& m = members[i];
      const BigInt& received =
          rr.collected.at(m.cred.id).at(ring[(i + n - 1) % n]).payload.get_int("v");
      m.ledger.record(Op::kModExp);
      next[i] = params.ctx_p->exp(received, m.r);
    }
    inflight = std::move(next);
  }

  for (std::size_t i = 0; i < n; ++i) members[i].key = inflight[i];
  for (const MemberCtx& m : members) {
    if (m.key != members[0].key) {
      throw std::logic_error("run_ing: members disagree on the key");
    }
  }
  result.success = true;
  result.key = members[0].key;
  return result;
}

}  // namespace idgka::gka
