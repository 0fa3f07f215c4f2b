#include "gka/proposed.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>

#include "energy/profiles.h"
#include "gka/bd_math.h"
#include "hash/hmac.h"
#include "net/parallel.h"

namespace idgka::gka {

namespace {

using energy::Op;

// HMAC_{K}(confirm || U_i): the key-confirmation tag.
hash::Sha256::Digest key_confirmation_tag(const BigInt& key, std::uint32_t id) {
  const auto key_bytes = key.to_bytes_be();
  std::vector<std::uint8_t> msg = {'k', 'c', '|'};
  for (int i = 3; i >= 0; --i) msg.push_back(static_cast<std::uint8_t>(id >> (i * 8)));
  return hash::hmac_sha256(key_bytes, msg);
}

}  // namespace

RunResult run_proposed(const SystemParams& params, std::span<MemberCtx> members,
                       net::Network& network, const ProposedOptions& options) {
  RunResult result;
  const std::size_t n = members.size();
  if (n < 2) throw std::invalid_argument("run_proposed: need at least 2 members");

  // Ring order (member idx sits at ring position idx), and the public
  // identities every verifier checks the batch against: gathered once,
  // shared read-only by the parallel members.
  std::vector<std::uint32_t> ring;
  std::vector<sig::GqIdentity> roster;
  std::unordered_map<std::uint32_t, std::size_t> position;
  ring.reserve(n);
  roster.reserve(n);
  for (const MemberCtx& m : members) {
    position.emplace(m.cred.id, ring.size());
    ring.push_back(m.cred.id);
    roster.push_back(m.cred.gq_identity);
  }

  const gka::GroupCtx grp = params.group();
  const std::size_t z_bits = params.element_bits();
  const std::size_t t_bits = params.gq_t_bits();
  const std::size_t s_bits = params.gq_s_bits();

  // Every member's work in a round depends only on its own state and the
  // messages it received, so each round's member loop runs fork-join
  // parallel across the simulated nodes; outgoing messages land in
  // pre-sized slots in ring order, so the send order is the serial one.

  // ---------------------------------------------------------------- Round 1
  // z_i = g^{r_i}, t_i = tau_i^e; broadcast m_i = U_i || z_i || t_i.
  std::vector<RoundSend> round1(n);
  net::parallel_for_each(n, [&](std::size_t idx) {
    MemberCtx& m = members[idx];
    m.ring = ring;
    m.r = mpint::random_range(*m.rng, BigInt{1}, params.grp.q);
    m.ledger.record(Op::kModExp);  // z_i = g^{r_i}
    const BigInt z = params.gpow(m.r);

    // GQ commitment; the exponentiation t = tau^e is half of the GQ
    // signature generation, charged as part of kSignGenGq in Round 2.
    const sig::GqSigner signer(params.gq, m.cred.id, m.cred.gq_secret, params.ctx_n);
    const auto commitment = signer.commit(*m.rng);
    m.tau = commitment.tau;
    m.t = commitment.t;

    m.z_map.clear();
    m.t_map.clear();
    m.z_map[m.cred.id] = z;
    m.t_map[m.cred.id] = m.t;

    net::Message& msg = round1[idx].message;
    msg.sender = m.cred.id;
    msg.type = "proposed-r1";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("z", z);
    msg.payload.put_int("t", m.t);
    msg.declared_bits = energy::wire::kIdBits + z_bits + t_bits;
    round1[idx].group = ring;
  });
  const RoundResult r1 = exchange_round(network, round1, ring);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;

  // ---------------------------------------------------------------- Round 2
  // Each member files the received (z_j, t_j), then computes X_i, Z, T,
  // c = H(T || Z), s_i; broadcast m'_i = U_i || X_i || s_i. U_1 (ring[0],
  // the trusted controller) broadcasts last; the exchange helper preserves
  // the send order.
  std::vector<RoundSend> round2(n);
  struct LocalR2 {
    BigInt x;
    BigInt s;
    BigInt z_prod;
    BigInt c;
  };
  std::vector<LocalR2> locals(n);
  net::parallel_for_each(n, [&](std::size_t idx) {
    MemberCtx& m = members[idx];
    for (const auto& [sender, msg] : r1.collected.at(m.cred.id)) {
      m.z_map[sender] = msg.payload.get_int("z");
      m.t_map[sender] = msg.payload.get_int("t");
    }

    const BigInt& z_next = m.z_map.at(ring[(idx + 1) % n]);
    const BigInt& z_prev = m.z_map.at(ring[(idx + n - 1) % n]);
    m.ledger.record(Op::kModExp);  // X_i
    locals[idx].x = bd::compute_x(grp, z_next, z_prev, m.r);

    std::vector<BigInt> z_vals;
    std::vector<BigInt> t_vals;
    z_vals.reserve(n);
    t_vals.reserve(n);
    for (const std::uint32_t id : ring) {
      z_vals.push_back(m.z_map.at(id));
      t_vals.push_back(m.t_map.at(id));
    }
    const BigInt z_prod = params.ctx_p->product(z_vals);
    const BigInt t_prod = params.ctx_n->product(t_vals);
    locals[idx].z_prod = z_prod;
    locals[idx].c = sig::gq_challenge(t_prod.to_bytes_be(), z_prod.to_bytes_be());

    // s_i = tau_i * S_{U_i}^c — together with t_i this is one GQ signature
    // generation (paper: one Sign Gen per member).
    m.ledger.record(Op::kSignGenGq);
    const sig::GqSigner signer(params.gq, m.cred.id, m.cred.gq_secret, params.ctx_n);
    locals[idx].s = signer.respond({m.tau, m.t}, locals[idx].c);

    net::Message& msg = round2[idx].message;
    msg.sender = m.cred.id;
    msg.type = "proposed-r2";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("x", locals[idx].x);
    msg.payload.put_int("s", locals[idx].s);
    msg.declared_bits = energy::wire::kIdBits + z_bits + s_bits;
    round2[idx].group = ring;
  });
  // Trusted-controller ordering: U_1 transmits after everyone else.
  std::rotate(round2.begin(), round2.begin() + 1, round2.end());
  const RoundResult r2 = exchange_round(network, round2, ring);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ------------------------------------------- Authentication + Key
  std::atomic<bool> all_ok{true};
  net::parallel_for_each(n, [&](std::size_t idx) {
    MemberCtx& m = members[idx];
    // Collect X_j and s_j in ring order (own values from locals).
    std::vector<BigInt> x_ring(n);
    std::vector<BigInt> s_ring(n);
    x_ring[idx] = locals[idx].x;
    s_ring[idx] = locals[idx].s;
    for (const auto& [sender, msg] : r2.collected.at(m.cred.id)) {
      const std::size_t j = position.at(sender);
      x_ring[j] = msg.payload.get_int("x");
      s_ring[j] = msg.payload.get_int("s");
    }

    // Equation (2): one batch verification per member.
    m.ledger.record(Op::kSignVerGq);
    if (!sig::gq_batch_verify(params.gq, *params.ctx_n, roster, s_ring, locals[idx].c,
                              locals[idx].z_prod.to_bytes_be())) {
      all_ok.store(false, std::memory_order_relaxed);
      return;  // protocol-level failure (driver may retry from scratch)
    }
    // Lemma 1.
    if (!bd::lemma1_holds(grp, x_ring)) {
      all_ok.store(false, std::memory_order_relaxed);
      return;
    }

    // Equation (3): key reconstruction (the third exponentiation).
    m.ledger.record(Op::kModExp);
    std::vector<BigInt> z_ring(n);
    for (std::size_t j = 0; j < n; ++j) z_ring[j] = m.z_map.at(ring[j]);
    m.key = bd::compute_key(grp, z_ring, x_ring, idx, m.r);
  });
  if (!all_ok.load()) return result;
  for (const MemberCtx& m : members) {
    if (m.key != members[0].key) {
      throw std::logic_error("run_proposed: members disagree on the key");
    }
  }

  // ------------------------------------------- Optional key confirmation.
  if (options.key_confirmation) {
    std::vector<RoundSend> round3;
    round3.reserve(n);
    for (MemberCtx& m : members) {
      net::Message msg;
      msg.sender = m.cred.id;
      msg.type = "proposed-kc";
      m.ledger.record(Op::kHashBlock, 2);  // one HMAC = two compression calls
      const auto tag = key_confirmation_tag(m.key, m.cred.id);
      msg.payload.put_blob("tag", std::vector<std::uint8_t>(tag.begin(), tag.end()));
      msg.declared_bits = energy::wire::kIdBits + 256;
      round3.push_back(RoundSend{std::move(msg), ring});
    }
    const RoundResult r3 = exchange_round(network, round3, ring);
    result.retransmissions += r3.retransmissions;
    if (!r3.complete) return result;
    ++result.rounds;

    std::atomic<bool> confirmed{true};
    net::parallel_for_each(n, [&](std::size_t idx) {
      MemberCtx& m = members[idx];
      for (const auto& [sender, msg] : r3.collected.at(m.cred.id)) {
        m.ledger.record(Op::kHashBlock, 2);
        const auto want = key_confirmation_tag(m.key, sender);
        const auto& got = msg.payload.get_blob("tag");
        if (got.size() != want.size() || !std::equal(want.begin(), want.end(), got.begin())) {
          confirmed.store(false, std::memory_order_relaxed);
          return;
        }
      }
    });
    if (!confirmed.load()) return result;
  }

  result.success = true;
  result.key = members[0].key;
  return result;
}

}  // namespace idgka::gka
