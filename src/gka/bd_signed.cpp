#include "gka/bd_signed.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "energy/profiles.h"
#include "gka/bd_math.h"
#include "net/parallel.h"

namespace idgka::gka {

namespace {

using energy::Op;

// The signed statement m_i = U_i || z_i || X_i || prod_j z_j.
std::vector<std::uint8_t> signed_statement(std::uint32_t id, const BigInt& z, const BigInt& x,
                                           const BigInt& z_prod) {
  std::vector<std::uint8_t> out;
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(id >> (i * 8)));
  auto append = [&out](const BigInt& v) {
    const auto b = v.to_bytes_be();
    out.push_back(static_cast<std::uint8_t>(b.size() >> 8));
    out.push_back(static_cast<std::uint8_t>(b.size()));
    out.insert(out.end(), b.begin(), b.end());
  };
  append(z);
  append(x);
  append(z_prod);
  return out;
}

std::vector<std::uint8_t> serialize_cert(const pki::Certificate& cert) {
  auto bytes = cert.tbs_bytes();
  const auto r = cert.sig_r.to_bytes_be();
  const auto s = cert.sig_s.to_bytes_be();
  bytes.push_back(static_cast<std::uint8_t>(r.size()));
  bytes.insert(bytes.end(), r.begin(), r.end());
  bytes.push_back(static_cast<std::uint8_t>(s.size()));
  bytes.insert(bytes.end(), s.begin(), s.end());
  return bytes;
}

}  // namespace

RunResult run_bd_signed(const Authority& authority, BdAuth auth, std::span<MemberCtx> members,
                        net::Network& network) {
  RunResult result;
  const SystemParams& params = authority.params();
  const gka::GroupCtx grp = params.group();
  const std::size_t n = members.size();
  if (n < 2) throw std::invalid_argument("run_bd_signed: need at least 2 members");

  std::vector<std::uint32_t> ring;
  ring.reserve(n);
  for (const MemberCtx& m : members) ring.push_back(m.cred.id);

  const bool cert_based = auth == BdAuth::kEcdsa || auth == BdAuth::kDsa;
  const std::size_t z_bits = params.element_bits();
  const std::size_t cert_bits = auth == BdAuth::kEcdsa ? energy::wire::kEcdsaCertBits
                                                       : energy::wire::kDsaCertBits;

  // ---------------------------------------------------------------- Round 1
  // Broadcast U_i || z_i (and the certificate for the cert-based variants).
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
    msg.type = "bd-r1";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("z", z);
    std::size_t bits = energy::wire::kIdBits + z_bits;
    if (cert_based) {
      const pki::Certificate& cert =
          auth == BdAuth::kEcdsa ? m.cred.ecdsa_cert : m.cred.dsa_cert;
      msg.payload.put_blob("cert", serialize_cert(cert));
      bits += cert_bits;  // paper Table 3 certificate sizes
    }
    msg.declared_bits = bits;
    round1.push_back(RoundSend{std::move(msg), ring});
  }
  const RoundResult r1 = exchange_round(network, round1, ring);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;

  // Certificate verification: n-1 per member (paper Table 1 "Cert Ver").
  for (MemberCtx& m : members) {
    for (const auto& [sender, msg] : r1.collected.at(m.cred.id)) {
      m.z_map[sender] = msg.payload.get_int("z");
      if (cert_based) {
        m.ledger.record(auth == BdAuth::kEcdsa ? Op::kCertVerifyEcdsa : Op::kCertVerifyDsa);
      }
    }
  }
  // Actual cryptographic certificate checks (outside the per-member loop
  // above only in accounting terms — every member performs them; we run the
  // real checks once per (member, peer) pair below).
  if (cert_based) {
    const pki::CertificateAuthority& ca =
        auth == BdAuth::kEcdsa ? authority.ecdsa_ca() : authority.dsa_ca();
    for (MemberCtx& m : members) {
      for (const MemberCtx& peer : members) {
        if (peer.cred.id == m.cred.id) continue;
        const pki::Certificate& cert =
            auth == BdAuth::kEcdsa ? peer.cred.ecdsa_cert : peer.cred.dsa_cert;
        if (!ca.verify(cert)) return result;
      }
    }
  }

  // ---------------------------------------------------------------- Round 2
  // X_i + signature over U_i || z_i || X_i || Z.
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
    const BigInt& z_next = m.z_map.at(ring[(i + 1) % n]);
    const BigInt& z_prev = m.z_map.at(ring[(i + n - 1) % n]);
    m.ledger.record(Op::kModExp);  // X_i
    locals[idx].x = bd::compute_x(grp, z_next, z_prev, m.r);
    std::vector<BigInt> z_vals;
    z_vals.reserve(n);
    for (const std::uint32_t id : ring) z_vals.push_back(m.z_map.at(id));
    const BigInt z_prod = params.ctx_p->product(z_vals);
    locals[idx].z_prod = z_prod;

    const auto statement =
        signed_statement(m.cred.id, m.z_map.at(m.cred.id), locals[idx].x, z_prod);

    net::Message msg;
    msg.sender = m.cred.id;
    msg.type = "bd-r2";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("x", locals[idx].x);
    std::size_t sig_bits = 0;
    switch (auth) {
      case BdAuth::kSok: {
        m.ledger.record(Op::kSignGenSok);
        const auto sig = sig::sok_sign(authority.ss_group(), m.cred.id, m.cred.sok_secret,
                                       statement, *m.rng);
        msg.payload.put_int("s1x", sig.s1.x);
        msg.payload.put_int("s1y", sig.s1.y);
        msg.payload.put_int("s2x", sig.s2.x);
        msg.payload.put_int("s2y", sig.s2.y);
        sig_bits = energy::wire::kSokSigBits;
        break;
      }
      case BdAuth::kEcdsa: {
        m.ledger.record(Op::kSignGenEcdsa);
        const auto sig = sig::ecdsa_sign(authority.curve(), m.cred.ecdsa_key, statement, *m.rng);
        msg.payload.put_int("sig_r", sig.r);
        msg.payload.put_int("sig_s", sig.s);
        sig_bits = energy::wire::kEcdsaSigBits;
        break;
      }
      case BdAuth::kDsa: {
        m.ledger.record(Op::kSignGenDsa);
        // The commitment R = g^k rides along so receivers can fold all n-1
        // checks into one dsa_batch_verify; the paper accounting
        // (declared_bits) still prices the classic r||s signature.
        const auto sig = sig::dsa_sign_committed(authority.dsa_params(), authority.dsa_ctx(),
                                                 m.cred.dsa_key, statement, *m.rng);
        msg.payload.put_int("sig_r", sig.sig.r);
        msg.payload.put_int("sig_s", sig.sig.s);
        msg.payload.put_int("sig_rr", sig.commitment);
        sig_bits = energy::wire::kDsaSigBits;
        break;
      }
    }
    msg.declared_bits = energy::wire::kIdBits + z_bits + sig_bits;
    round2.push_back(RoundSend{std::move(msg), ring});
  }
  const RoundResult r2 = exchange_round(network, round2, ring);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ------------------------------------------- Verification + Key
  // n-1 signature verifications per member: the quadratic phase, run
  // fork-join parallel across the share-nothing simulated nodes.
  std::atomic<bool> all_ok{true};
  net::parallel_for_each(n, [&](std::size_t idx) {
    MemberCtx& m = members[idx];
    const std::size_t own = m.ring_index();
    std::vector<BigInt> x_ring(n);
    x_ring[own] = locals[idx].x;

    // DSA signatures accumulate here and verify in one batch below.
    std::vector<BigInt> dsa_ys;
    std::vector<std::vector<std::uint8_t>> dsa_statements;
    std::vector<sig::DsaCommittedSignature> dsa_sigs;

    for (const auto& [sender, msg] : r2.collected.at(m.cred.id)) {
      const std::size_t j = m.ring_index_of(sender);
      const BigInt x_j = msg.payload.get_int("x");
      x_ring[j] = x_j;
      const auto statement = signed_statement(sender, m.z_map.at(sender), x_j,
                                              locals[idx].z_prod);
      bool ok = false;
      switch (auth) {
        case BdAuth::kSok: {
          // Verification maps the claimed identity onto the curve
          // (paper Table 1: n-1 MapToPoint per member) and checks two
          // pairings (charged as the SOK verify unit).
          m.ledger.record(Op::kMapToPoint);
          m.ledger.record(Op::kSignVerSok);
          sig::SokSignature sig;
          sig.s1 = ec::Point{msg.payload.get_int("s1x"), msg.payload.get_int("s1y"), false};
          sig.s2 = ec::Point{msg.payload.get_int("s2x"), msg.payload.get_int("s2y"), false};
          ok = sig::sok_verify(authority.tate(), authority.sok_public_key(), sender,
                               statement, sig);
          break;
        }
        case BdAuth::kEcdsa: {
          m.ledger.record(Op::kSignVerEcdsa);
          const auto peer_it =
              std::find_if(members.begin(), members.end(),
                           [&](const MemberCtx& p) { return p.cred.id == sender; });
          const auto pub = pki::decode_ec_public(authority.curve(),
                                                 peer_it->cred.ecdsa_cert.subject_public_key);
          ok = pub.has_value() &&
               sig::ecdsa_verify(authority.curve(), *pub, statement,
                                 sig::EcdsaSignature{msg.payload.get_int("sig_r"),
                                                     msg.payload.get_int("sig_s")});
          break;
        }
        case BdAuth::kDsa: {
          m.ledger.record(Op::kSignVerDsa);
          const auto peer_it =
              std::find_if(members.begin(), members.end(),
                           [&](const MemberCtx& p) { return p.cred.id == sender; });
          const auto pub = pki::decode_dsa_public(authority.dsa_params(),
                                                  peer_it->cred.dsa_cert.subject_public_key);
          ok = pub.has_value();
          if (ok) {
            dsa_ys.push_back(*pub);
            dsa_statements.push_back(statement);
            dsa_sigs.push_back(sig::DsaCommittedSignature{
                sig::DsaSignature{msg.payload.get_int("sig_r"), msg.payload.get_int("sig_s")},
                msg.payload.get_int("sig_rr")});
          }
          break;
        }
      }
      if (!ok) {
        all_ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
    // One screening batch replaces the n-1 independent DSA checks (the
    // kSignVerDsa ledger records above keep the paper's per-peer
    // accounting).
    if (auth == BdAuth::kDsa &&
        !sig::dsa_batch_verify(authority.dsa_params(), authority.dsa_ctx(), dsa_ys,
                               dsa_statements, dsa_sigs)) {
      all_ok.store(false, std::memory_order_relaxed);
      return;
    }

    // Key reconstruction.
    m.ledger.record(Op::kModExp);
    std::vector<BigInt> z_ring(n);
    for (std::size_t j = 0; j < n; ++j) z_ring[j] = m.z_map.at(ring[j]);
    m.key = bd::compute_key(grp, z_ring, x_ring, own, m.r);
  });
  if (!all_ok.load()) return result;
  for (const MemberCtx& m : members) {
    if (m.key != members[0].key) {
      throw std::logic_error("run_bd_signed: members disagree on the key");
    }
  }

  result.success = true;
  result.key = members[0].key;
  return result;
}

}  // namespace idgka::gka
