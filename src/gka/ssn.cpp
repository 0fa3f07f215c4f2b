#include "gka/ssn.h"

#include <atomic>
#include <stdexcept>

#include "energy/profiles.h"
#include "gka/bd_math.h"
#include "net/parallel.h"
#include "hash/sha256.h"

namespace idgka::gka {

namespace {

using energy::Op;

// c_i = H(U_i || z_i || X_i || Z), non-zero.
BigInt authenticator_challenge(std::uint32_t id, const BigInt& z, const BigInt& x,
                               const BigInt& z_prod) {
  hash::Sha256 h;
  h.update(std::string_view{"idgka-ssn-chal|"});
  std::array<std::uint8_t, 4> id_be{};
  for (int i = 0; i < 4; ++i) id_be[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (24 - i * 8));
  h.update(id_be);
  h.update(z.to_bytes_be());
  h.update(x.to_bytes_be());
  h.update(z_prod.to_bytes_be());
  BigInt c = BigInt::from_bytes_be(h.finalize());
  if (c.is_zero()) c = BigInt{1};
  return c;
}

}  // namespace

RunResult run_ssn(const SystemParams& params, std::span<MemberCtx> members,
                  net::Network& network) {
  RunResult result;
  const std::size_t n = members.size();
  if (n < 2) throw std::invalid_argument("run_ssn: need at least 2 members");

  // Ring order and the members' public identities (H(U_j) for the
  // authenticator checks), gathered once and shared by the verifiers.
  std::vector<std::uint32_t> ring;
  std::vector<sig::GqIdentity> roster;
  ring.reserve(n);
  roster.reserve(n);
  for (const MemberCtx& m : members) {
    ring.push_back(m.cred.id);
    roster.push_back(m.cred.gq_identity);
  }

  const gka::GroupCtx grp = params.group();
  const std::size_t z_bits = params.element_bits();
  const std::size_t n_bits = params.gq_t_bits();

  // ---------------------------------------------------------------- Round 1
  std::vector<RoundSend> round1;
  round1.reserve(n);
  for (MemberCtx& m : members) {
    m.ring = ring;
    m.r = mpint::random_range(*m.rng, BigInt{1}, params.grp.q);
    m.ledger.record(Op::kModExp);  // z_i
    const BigInt z = params.gpow(m.r);
    m.z_map.clear();
    m.t_map.clear();
    m.z_map[m.cred.id] = z;

    net::Message msg;
    msg.sender = m.cred.id;
    msg.type = "ssn-r1";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("z", z);
    msg.declared_bits = energy::wire::kIdBits + z_bits;
    round1.push_back(RoundSend{std::move(msg), ring});
  }
  const RoundResult r1 = exchange_round(network, round1, ring);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;
  for (MemberCtx& m : members) {
    for (const auto& [sender, msg] : r1.collected.at(m.cred.id)) {
      m.z_map[sender] = msg.payload.get_int("z");
    }
  }

  // ---------------------------------------------------------------- Round 2
  struct LocalR2 {
    BigInt x;
    BigInt z_prod;
  };
  std::vector<LocalR2> locals(n);
  std::vector<RoundSend> round2;
  round2.reserve(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    MemberCtx& m = members[idx];
    const std::size_t i = m.ring_index();
    m.ledger.record(Op::kModExp);  // X_i
    locals[idx].x = bd::compute_x(grp, m.z_map.at(ring[(i + 1) % n]),
                                  m.z_map.at(ring[(i + n - 1) % n]), m.r);
    BigInt z_prod{1};
    for (const std::uint32_t id : ring) z_prod = params.ctx_p->mul(z_prod, m.z_map.at(id));
    locals[idx].z_prod = z_prod;

    const BigInt c =
        authenticator_challenge(m.cred.id, m.z_map.at(m.cred.id), locals[idx].x, z_prod);
    const BigInt rho = mpint::random_unit(*m.rng, params.gq.n);
    m.ledger.record(Op::kModExp);  // w_i = h^{rho}
    const BigInt w = params.hpow(rho);
    m.ledger.record(Op::kModExp);  // w_i^{c_i}
    const BigInt a = params.ctx_n->mul(m.cred.gq_secret, params.ctx_n->exp(w, c));

    net::Message msg;
    msg.sender = m.cred.id;
    msg.type = "ssn-r2";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("x", locals[idx].x);
    msg.payload.put_int("w", w);
    msg.payload.put_int("a", a);
    msg.declared_bits = energy::wire::kIdBits + z_bits + 2 * n_bits;
    round2.push_back(RoundSend{std::move(msg), ring});
  }
  const RoundResult r2 = exchange_round(network, round2, ring);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ------------------------------------------- Verification + Key
  std::atomic<bool> all_ok{true};
  net::parallel_for_each(n, [&](std::size_t idx) {
    MemberCtx& m = members[idx];
    const std::size_t own = m.ring_index();
    std::vector<BigInt> x_ring(n);
    x_ring[own] = locals[idx].x;

    for (const auto& [sender, msg] : r2.collected.at(m.cred.id)) {
      const std::size_t j = m.ring_index_of(sender);
      const BigInt x_j = msg.payload.get_int("x");
      const BigInt& w_j = msg.payload.get_int("w");
      const BigInt& a_j = msg.payload.get_int("a");
      x_ring[j] = x_j;
      const BigInt c_j = authenticator_challenge(sender, m.z_map.at(sender), x_j,
                                                 locals[idx].z_prod);
      // a_j^e == H(U_j) * w_j^{c_j * e} mod n  —  two exponentiations.
      m.ledger.record(Op::kModExp, 2);
      const BigInt lhs = params.ctx_n->exp(a_j, params.gq.e);
      const BigInt rhs = params.ctx_n->mul(roster[j].h,
                                           params.ctx_n->exp(w_j, c_j * params.gq.e));
      if (lhs != rhs) {
        all_ok.store(false, std::memory_order_relaxed);
        return;
      }
    }

    m.ledger.record(Op::kModExp);  // key reconstruction
    std::vector<BigInt> z_ring(n);
    for (std::size_t j = 0; j < n; ++j) z_ring[j] = m.z_map.at(ring[j]);
    m.key = bd::compute_key(grp, z_ring, x_ring, own, m.r);
  });
  if (!all_ok.load()) return result;
  for (const MemberCtx& m : members) {
    if (m.key != members[0].key) {
      throw std::logic_error("run_ssn: members disagree on the key");
    }
  }

  result.success = true;
  result.key = members[0].key;
  return result;
}

}  // namespace idgka::gka
