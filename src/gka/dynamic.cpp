#include "gka/dynamic.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>

#include "energy/profiles.h"
#include "gka/bd_math.h"
#include "net/parallel.h"
#include "symc/sealed_box.h"

namespace idgka::gka {

namespace {

using energy::Op;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> id_z_bytes(std::uint32_t id, const BigInt& z) {
  std::vector<std::uint8_t> out;
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(id >> (i * 8)));
  const auto zb = z.to_bytes_be();
  out.insert(out.end(), zb.begin(), zb.end());
  return out;
}

std::vector<std::uint8_t> blob_z_bytes(const std::vector<std::uint8_t>& blob, const BigInt& z) {
  std::vector<std::uint8_t> out = blob;
  const auto zb = z.to_bytes_be();
  out.insert(out.end(), zb.begin(), zb.end());
  return out;
}

// Seals payload under `key` and charges the AES blocks to the ledger.
std::vector<std::uint8_t> seal_counted(MemberCtx& m, const BigInt& key, const BigInt& payload,
                                       std::uint64_t sequence) {
  const symc::SealedBox box(key);
  auto sealed = box.seal(payload, m.cred.id, sequence);
  m.ledger.record(Op::kSymEncBlock, sealed.size() / symc::Aes128::kBlockSize);
  return sealed;
}

// Opens a sealed payload, charging AES blocks; empty optional on failure.
std::optional<BigInt> open_counted(MemberCtx& m, const BigInt& key,
                                   std::span<const std::uint8_t> sealed,
                                   std::uint32_t expected_sender, std::uint64_t sequence) {
  m.ledger.record(Op::kSymDecBlock, sealed.size() / symc::Aes128::kBlockSize);
  const symc::SealedBox box(key);
  return box.open(sealed, expected_sender, sequence);
}

// K* = key * (za zb)^ea * (zc zd)^eb (Eq. 5 and its merge analogues) as one
// Montgomery residue chain: every intermediate stays in the residue domain,
// with a single conversion out at the end.
BigInt rekey_star(const mpint::ModContext& ctx, const BigInt& key, const BigInt& za,
                  const BigInt& zb, const BigInt& ea, const BigInt& zc, const BigInt& zd,
                  const BigInt& eb) {
  mpint::Residue term = ctx.to_residue(za);
  mpint::Residue tmp = ctx.to_residue(zb);
  ctx.mul(term, tmp, term);
  ctx.exp(term, ea, term);
  mpint::Residue acc = ctx.to_residue(key);
  ctx.mul(acc, term, acc);
  term = ctx.to_residue(zc);
  tmp = ctx.to_residue(zd);
  ctx.mul(term, tmp, term);
  ctx.exp(term, eb, term);
  ctx.mul(acc, term, acc);
  return ctx.from_residue(acc);
}

// Ring-state table carried as metadata on bridge messages (see header).
void put_ring_table(net::Payload& payload, const MemberCtx& m) {
  payload.put_u32("tbl_n", static_cast<std::uint32_t>(m.ring.size()));
  for (std::size_t i = 0; i < m.ring.size(); ++i) {
    const std::uint32_t id = m.ring[i];
    payload.put_u32("tbl_id" + std::to_string(i), id);
    payload.put_int("tbl_z" + std::to_string(i), m.z_map.at(id));
    const auto t_it = m.t_map.find(id);
    payload.put_int("tbl_t" + std::to_string(i),
                    t_it == m.t_map.end() ? BigInt{} : t_it->second);
  }
}

struct RingTable {
  std::vector<std::uint32_t> ids;
  std::map<std::uint32_t, BigInt> z;
  std::map<std::uint32_t, BigInt> t;
};

RingTable get_ring_table(const net::Payload& payload) {
  RingTable tbl;
  const std::uint32_t n = payload.get_u32("tbl_n");
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t id = payload.get_u32("tbl_id" + std::to_string(i));
    tbl.ids.push_back(id);
    tbl.z[id] = payload.get_int("tbl_z" + std::to_string(i));
    tbl.t[id] = payload.get_int("tbl_t" + std::to_string(i));
  }
  return tbl;
}

void check_ring_order(std::span<MemberCtx> members) {
  if (members.empty()) throw std::invalid_argument("dynamic: empty member span");
  const auto& ring = members[0].ring;
  if (ring.size() != members.size()) {
    throw std::invalid_argument("dynamic: member span does not match ring");
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].cred.id != ring[i]) {
      throw std::invalid_argument("dynamic: member span must be in ring order");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Join protocol (3 rounds)
// ---------------------------------------------------------------------------

RunResult run_join(const SystemParams& params, std::span<MemberCtx> members,
                   MemberCtx& joiner, net::Network& network) {
  RunResult result;
  check_ring_order(members);
  const std::size_t n = members.size();
  if (n < 2) throw std::invalid_argument("run_join: need at least 2 current members");
  if (!network.has_node(joiner.cred.id)) network.add_node(joiner.cred.id);

  MemberCtx& u1 = members[0];
  MemberCtx& un = members[n - 1];
  const std::vector<std::uint32_t> old_ring = u1.ring;
  std::vector<std::uint32_t> everyone = old_ring;
  everyone.push_back(joiner.cred.id);
  const BigInt old_key = u1.key;
  const std::size_t z_bits = params.element_bits();
  const std::size_t sig_bits = params.gq_s_bits() + 160;

  // ---------------- Round 1: the joiner introduces itself (signed).
  joiner.r = mpint::random_range(*joiner.rng, BigInt{1}, params.grp.q);
  joiner.ledger.record(Op::kModExp);
  const BigInt z_new = params.gpow(joiner.r);
  joiner.tau = BigInt{};  // no stored commitment yet; refreshed at next leave
  joiner.t = BigInt{};

  joiner.ledger.record(Op::kSignGenGq);
  const sig::GqSigner joiner_signer(params.gq, joiner.cred.id, joiner.cred.gq_secret, params.ctx_n);
  const auto sig_r1 = joiner_signer.sign(id_z_bytes(joiner.cred.id, z_new), *joiner.rng);

  net::Message m_r1;
  m_r1.sender = joiner.cred.id;
  m_r1.type = "join-r1";
  m_r1.payload.put_u32("id", joiner.cred.id);
  m_r1.payload.put_int("z", z_new);
  m_r1.payload.put_int("sig_s", sig_r1.s);
  m_r1.payload.put_int("sig_c", sig_r1.c);
  m_r1.declared_bits = energy::wire::kIdBits + z_bits + sig_bits;
  const RoundResult r1 = exchange_round(network, {RoundSend{m_r1, old_ring}}, old_ring);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;

  // Every existing member takes z_{n+1} from its own received copy.
  for (MemberCtx& m : members) {
    m.z_map[joiner.cred.id] =
        r1.collected.at(m.cred.id).at(joiner.cred.id).payload.get_int("z");
  }
  // Verification helper bound to a member's received copy of m_{n+1}.
  auto verify_joiner_intro = [&](MemberCtx& m) {
    const net::Message& rx = r1.collected.at(m.cred.id).at(joiner.cred.id);
    m.ledger.record(Op::kSignVerGq);
    const sig::GqSignature s{rx.payload.get_int("sig_s"), rx.payload.get_int("sig_c")};
    return sig::gq_verify(params.gq, *params.ctx_n, joiner.cred.gq_identity,
                          id_z_bytes(joiner.cred.id, rx.payload.get_int("z")), s);
  };

  // ---------------- Round 2.
  // (1) U_1: verify, re-key K*, publish E_K(K* || U_1) and its refreshed z.
  if (!verify_joiner_intro(u1)) return result;
  const BigInt r1_old = u1.r;
  const BigInt r1_new = mpint::random_range(*u1.rng, BigInt{1}, params.grp.q);
  const BigInt& z2 = u1.z_map.at(old_ring[1 % n]);
  const BigInt& zn = u1.z_map.at(old_ring[n - 1]);
  // K* = K * (z2 zn)^{-r1} * (z2 z_{n+1})^{r1'}   (Eq. 5)
  u1.ledger.record(Op::kModExp, 2);
  const BigInt k_star = rekey_star(*params.ctx_p, old_key, z2, zn, params.grp.q - r1_old,
                                   z2, u1.z_map.at(joiner.cred.id), r1_new);
  u1.r = r1_new;
  // Deviation (README, "Join publishes z1'"): keeps the ring consistent.
  u1.ledger.record(Op::kModExp);
  const BigInt z1_new = params.gpow(r1_new);

  net::Message m_u1;
  m_u1.sender = u1.cred.id;
  m_u1.type = "join-r2-u1";
  m_u1.payload.put_u32("id", u1.cred.id);
  const auto ek_kstar = seal_counted(u1, old_key, k_star, /*sequence=*/0);
  const std::size_t sealed_sz_bits = ek_kstar.size() * 8;
  m_u1.payload.put_blob("ek_kstar", ek_kstar);
  m_u1.payload.put_int("z1_new", z1_new);
  m_u1.declared_bits = energy::wire::kIdBits + sealed_sz_bits + z_bits;

  // (2) U_n: verify, DH-bridge to the joiner, sign its message.
  if (!verify_joiner_intro(un)) return result;
  un.ledger.record(Op::kModExp);
  const BigInt k_bridge =
      params.ctx_p->exp(un.z_map.at(joiner.cred.id), un.r);  // g^{r_n r_{n+1}}
  const auto ek_bridge = seal_counted(un, old_key, k_bridge, /*sequence=*/0);
  un.ledger.record(Op::kSignGenGq);
  const sig::GqSigner un_signer(params.gq, un.cred.id, un.cred.gq_secret, params.ctx_n);
  const auto sig_un = un_signer.sign(blob_z_bytes(ek_bridge, un.z_map.at(un.cred.id)), *un.rng);

  net::Message m_un;
  m_un.sender = un.cred.id;
  m_un.type = "join-r2-un";
  m_un.payload.put_u32("id", un.cred.id);
  m_un.payload.put_blob("ek_bridge", ek_bridge);
  m_un.payload.put_int("zn", un.z_map.at(un.cred.id));
  m_un.payload.put_int("sig_s", sig_un.s);
  m_un.payload.put_int("sig_c", sig_un.c);
  m_un.declared_bits = energy::wire::kIdBits + z_bits + sig_bits +
                       static_cast<std::size_t>(ek_bridge.size()) * 8;

  std::vector<RoundSend> r2_sends;
  r2_sends.push_back(RoundSend{m_u1, old_ring});
  r2_sends.push_back(RoundSend{m_un, everyone});
  const RoundResult r2 = exchange_round(network, r2_sends, everyone);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ---------------- Round 3.
  // (1) The joiner verifies sigma'_n (from its received copy) and computes
  //     the DH bridge.
  const net::Message& m_un_at_joiner = r2.collected.at(joiner.cred.id).at(un.cred.id);
  joiner.ledger.record(Op::kSignVerGq);
  {
    const sig::GqSignature s{m_un_at_joiner.payload.get_int("sig_s"),
                             m_un_at_joiner.payload.get_int("sig_c")};
    if (!sig::gq_verify(params.gq, *params.ctx_n, un.cred.gq_identity,
                        blob_z_bytes(m_un_at_joiner.payload.get_blob("ek_bridge"),
                                     m_un_at_joiner.payload.get_int("zn")),
                        s)) {
      return result;
    }
  }
  joiner.ledger.record(Op::kModExp);
  const BigInt k_bridge_joiner =
      params.ctx_p->exp(m_un_at_joiner.payload.get_int("zn"), joiner.r);

  // (2) U_n relays K* (decrypted from its received copy of m'_1) to the
  //     joiner under the bridge key, plus the ring table (metadata).
  const net::Message& m_u1_at_un = r2.collected.at(un.cred.id).at(u1.cred.id);
  const auto k_star_at_un = open_counted(un, old_key, m_u1_at_un.payload.get_blob("ek_kstar"),
                                         u1.cred.id, /*sequence=*/0);
  if (!k_star_at_un.has_value()) return result;

  net::Message m_relay;
  m_relay.sender = un.cred.id;
  m_relay.recipient = joiner.cred.id;
  m_relay.type = "join-r3";
  m_relay.payload.put_u32("id", un.cred.id);
  m_relay.payload.put_blob("ek_kstar_bridge",
                           seal_counted(un, k_bridge, *k_star_at_un, /*sequence=*/1));
  m_relay.declared_bits = energy::wire::kIdBits + sealed_sz_bits;
  {
    // The relay carries the post-join ring table; build it from U_n's view.
    MemberCtx un_view = MemberCtx{};  // shallow helper for table building
    un_view.ring = everyone;
    un_view.z_map = un.z_map;
    un_view.z_map[u1.cred.id] = m_u1_at_un.payload.get_int("z1_new");
    un_view.t_map = un.t_map;
    put_ring_table(m_relay.payload, un_view);
  }
  const RoundResult r3 = exchange_round(network, {RoundSend{m_relay, {}}}, {joiner.cred.id});
  result.retransmissions += r3.retransmissions;
  if (!r3.complete) return result;
  ++result.rounds;

  // ---------------- Key computation.
  // Joiner: K' = K* * K_bridge, from its received relay copy.
  const net::Message& m_relay_at_joiner = r3.collected.at(joiner.cred.id).at(un.cred.id);
  const auto k_star_at_joiner =
      open_counted(joiner, k_bridge_joiner,
                   m_relay_at_joiner.payload.get_blob("ek_kstar_bridge"), un.cred.id,
                   /*sequence=*/1);
  if (!k_star_at_joiner.has_value()) return result;
  const BigInt new_key = params.ctx_p->mul(*k_star_at_joiner, k_bridge_joiner);

  // Existing members: decrypt K* (their copy of m'_1) and the bridge key
  // (their copy of m''_n).
  for (MemberCtx& m : members) {
    BigInt k_star_m;
    BigInt bridge_m;
    const auto& inbox = r2.collected.at(m.cred.id);
    if (m.cred.id == u1.cred.id) {
      k_star_m = k_star;
      const auto opened = open_counted(m, old_key,
                                       inbox.at(un.cred.id).payload.get_blob("ek_bridge"),
                                       un.cred.id, 0);
      if (!opened.has_value()) return result;
      bridge_m = *opened;
    } else if (m.cred.id == un.cred.id) {
      k_star_m = *k_star_at_un;
      bridge_m = k_bridge;
    } else {
      const auto opened_star = open_counted(
          m, old_key, inbox.at(u1.cred.id).payload.get_blob("ek_kstar"), u1.cred.id, 0);
      const auto opened_bridge = open_counted(
          m, old_key, inbox.at(un.cred.id).payload.get_blob("ek_bridge"), un.cred.id, 0);
      if (!opened_star.has_value() || !opened_bridge.has_value()) return result;
      k_star_m = *opened_star;
      bridge_m = *opened_bridge;
    }
    m.key = params.ctx_p->mul(k_star_m, bridge_m);
    if (m.key != new_key) throw std::logic_error("run_join: key mismatch");
    m.ring = everyone;
    if (m.cred.id != u1.cred.id) {
      m.z_map[u1.cred.id] = inbox.at(u1.cred.id).payload.get_int("z1_new");
    } else {
      m.z_map[u1.cred.id] = z1_new;
    }
  }

  // Joiner state: ring table from the relay.
  const RingTable tbl = get_ring_table(m_relay_at_joiner.payload);
  joiner.ring = tbl.ids;
  joiner.z_map = tbl.z;
  joiner.t_map.clear();
  for (const auto& [id, t] : tbl.t) {
    if (!t.is_zero()) joiner.t_map[id] = t;
  }
  joiner.z_map[joiner.cred.id] = z_new;
  joiner.key = new_key;

  result.success = true;
  result.key = new_key;
  return result;
}

// ---------------------------------------------------------------------------
// Partition protocol (2 rounds); Leave is the single-departure special case.
// ---------------------------------------------------------------------------

namespace {

RunResult run_departure(const SystemParams& params, std::span<MemberCtx> members,
                        const std::vector<std::uint32_t>& leaver_ids, net::Network& network,
                        const char* label, bool refresh_all) {
  RunResult result;
  check_ring_order(members);
  const std::vector<std::uint32_t>& old_ring = members[0].ring;

  // Everything a survivor computes during the run. Apart from its DRBG and
  // energy ledger, a member's state is written only after every survivor
  // verified, so a failed departure leaves no member half-updated.
  struct Survivor {
    MemberCtx* m = nullptr;
    bool refresh = false;
    BigInt r, tau, t;  // this run's r and GQ commitment
    BigInt z;          // refreshed z' = g^r (refreshers only)
    // Its view of z_j / t_j in survivor order: a refreshed value it holds
    // (own, or its received round-1 copy), else its stored table entry.
    std::vector<const BigInt*> z_view, t_view;
    BigInt x, s, z_prod, c, key;
  };

  // Survivor ring in original order (the member span is in ring order).
  // Refresh set: odd-indexed survivors (paper, 1-based positions) plus any
  // survivor without a stored GQ commitment (recent joiners — see header).
  std::vector<std::uint32_t> survivors;
  std::vector<Survivor> state;
  for (std::size_t i = 0; i < old_ring.size(); ++i) {
    if (std::find(leaver_ids.begin(), leaver_ids.end(), old_ring[i]) != leaver_ids.end()) {
      continue;
    }
    MemberCtx& m = members[i];
    survivors.push_back(m.cred.id);
    Survivor& v = state.emplace_back();
    v.m = &m;
    v.refresh = refresh_all || (i + 1) % 2 == 1 || m.tau.is_zero();
  }
  if (survivors.size() < 2) {
    throw std::invalid_argument("run_departure: fewer than 2 survivors");
  }
  if (survivors.size() == old_ring.size()) {
    throw std::invalid_argument("run_departure: no listed leaver is in the ring");
  }
  const std::size_t m_count = survivors.size();
  std::unordered_map<std::uint32_t, std::size_t> position;
  // The survivors' public identities, in survivor-ring order, for the batch
  // checks below.
  std::vector<sig::GqIdentity> roster;
  roster.reserve(m_count);
  for (std::size_t k = 0; k < m_count; ++k) {
    position.emplace(survivors[k], k);
    roster.push_back(state[k].m->cred.gq_identity);
  }
  const gka::GroupCtx grp = params.group();
  const std::size_t z_bits = params.element_bits();
  const std::size_t t_bits = params.gq_t_bits();
  const std::size_t s_bits = params.gq_s_bits();

  // ---------------- Round 1: refreshers broadcast new (z', t').
  std::vector<RoundSend> r1_slots(m_count);
  net::parallel_for_each(m_count, [&](std::size_t k) {
    Survivor& v = state[k];
    MemberCtx& m = *v.m;
    if (!v.refresh) {
      v.r = m.r;
      v.tau = m.tau;
      v.t = m.t;
      return;
    }
    v.r = mpint::random_range(*m.rng, BigInt{1}, params.grp.q);
    m.ledger.record(Op::kModExp);
    v.z = params.gpow(v.r);
    const sig::GqSigner signer(params.gq, m.cred.id, m.cred.gq_secret, params.ctx_n);
    const auto commitment = signer.commit(*m.rng);  // charged within SignGenGq
    v.tau = commitment.tau;
    v.t = commitment.t;

    net::Message& msg = r1_slots[k].message;
    msg.sender = m.cred.id;
    msg.type = std::string(label) + "-r1";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("z", v.z);
    msg.payload.put_int("t", v.t);
    msg.declared_bits = energy::wire::kIdBits + z_bits + t_bits;
    r1_slots[k].group = survivors;
  });
  std::vector<RoundSend> round1;
  for (std::size_t k = 0; k < m_count; ++k) {
    if (state[k].refresh) round1.push_back(std::move(r1_slots[k]));
  }
  const RoundResult r1 = exchange_round(network, round1, survivors);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;

  // ---------------- Round 2: X' over the survivor ring + shared-challenge
  // signatures (Eqs. 10/12). Each survivor first takes the refreshed
  // (z', t') from its own received copies.
  std::vector<RoundSend> round2(m_count);
  net::parallel_for_each(m_count, [&](std::size_t k) {
    Survivor& v = state[k];
    MemberCtx& m = *v.m;
    v.z_view.assign(m_count, nullptr);
    v.t_view.assign(m_count, nullptr);
    if (v.refresh) {
      v.z_view[k] = &v.z;
      v.t_view[k] = &v.t;
    }
    if (const auto inbox = r1.collected.find(m.cred.id); inbox != r1.collected.end()) {
      for (const auto& [sender, msg] : inbox->second) {
        const std::size_t j = position.at(sender);
        v.z_view[j] = &msg.payload.get_int("z");
        v.t_view[j] = &msg.payload.get_int("t");
      }
    }
    std::vector<BigInt> z_vals(m_count);
    std::vector<BigInt> t_vals(m_count);
    for (std::size_t j = 0; j < m_count; ++j) {
      if (v.z_view[j] == nullptr) {
        v.z_view[j] = &m.z_map.at(survivors[j]);
        v.t_view[j] = &m.t_map.at(survivors[j]);
      }
      z_vals[j] = *v.z_view[j];
      t_vals[j] = *v.t_view[j];
    }

    m.ledger.record(Op::kModExp);
    v.x = bd::compute_x(grp, z_vals[(k + 1) % m_count], z_vals[(k + m_count - 1) % m_count], v.r);
    v.z_prod = params.ctx_p->product(z_vals);
    const BigInt t_prod = params.ctx_n->product(t_vals);
    v.c = sig::gq_challenge(t_prod.to_bytes_be(), v.z_prod.to_bytes_be());
    m.ledger.record(Op::kSignGenGq);
    const sig::GqSigner signer(params.gq, m.cred.id, m.cred.gq_secret, params.ctx_n);
    v.s = signer.respond({v.tau, v.t}, v.c);

    net::Message& msg = round2[k].message;
    msg.sender = m.cred.id;
    msg.type = std::string(label) + "-r2";
    msg.payload.put_u32("id", m.cred.id);
    msg.payload.put_int("x", v.x);
    msg.payload.put_int("s", v.s);
    msg.declared_bits = energy::wire::kIdBits + z_bits + s_bits;
    round2[k].group = survivors;
  });
  // Controller (first survivor) broadcasts last.
  std::rotate(round2.begin(), round2.begin() + 1, round2.end());
  const RoundResult r2 = exchange_round(network, round2, survivors);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ---------------- Verification + key.
  std::atomic<bool> all_ok{true};
  net::parallel_for_each(m_count, [&](std::size_t k) {
    Survivor& v = state[k];
    MemberCtx& m = *v.m;
    std::vector<BigInt> x_ring(m_count);
    std::vector<BigInt> s_ring(m_count);
    x_ring[k] = v.x;
    s_ring[k] = v.s;
    for (const auto& [sender, msg] : r2.collected.at(m.cred.id)) {
      const std::size_t j = position.at(sender);
      x_ring[j] = msg.payload.get_int("x");
      s_ring[j] = msg.payload.get_int("s");
    }
    m.ledger.record(Op::kSignVerGq);
    if (!sig::gq_batch_verify(params.gq, *params.ctx_n, roster, s_ring, v.c,
                              v.z_prod.to_bytes_be()) ||
        !bd::lemma1_holds(grp, x_ring)) {
      all_ok.store(false, std::memory_order_relaxed);
      return;
    }
    m.ledger.record(Op::kModExp);
    std::vector<BigInt> z_ring(m_count);
    for (std::size_t j = 0; j < m_count; ++j) z_ring[j] = *v.z_view[j];
    v.key = bd::compute_key(grp, z_ring, x_ring, k, v.r);
  });
  if (!all_ok.load()) return result;
  for (const Survivor& v : state) {
    if (v.key != state[0].key) {
      throw std::logic_error("run_departure: members disagree on the key");
    }
  }

  // ---------------- Commit: new secrets, refreshed z/t, shrunk ring.
  for (Survivor& v : state) {
    MemberCtx& m = *v.m;
    for (std::size_t j = 0; j < m_count; ++j) {
      if (!state[j].refresh) continue;
      m.z_map[survivors[j]] = *v.z_view[j];
      m.t_map[survivors[j]] = *v.t_view[j];
    }
    m.r = std::move(v.r);
    m.tau = std::move(v.tau);
    m.t = std::move(v.t);
    m.key = std::move(v.key);
    m.ring = survivors;
    for (const std::uint32_t gone : leaver_ids) {
      m.z_map.erase(gone);
      m.t_map.erase(gone);
    }
  }

  result.success = true;
  result.key = state[0].m->key;
  return result;
}

}  // namespace

RunResult run_leave(const SystemParams& params, std::span<MemberCtx> members,
                    std::uint32_t leaver_id, net::Network& network,
                    bool refresh_all_commitments) {
  return run_departure(params, members, {leaver_id}, network, "leave",
                       refresh_all_commitments);
}

RunResult run_partition(const SystemParams& params, std::span<MemberCtx> members,
                        const std::vector<std::uint32_t>& leaver_ids, net::Network& network,
                        bool refresh_all_commitments) {
  return run_departure(params, members, leaver_ids, network, "part",
                       refresh_all_commitments);
}

// ---------------------------------------------------------------------------
// Merge protocol (3 rounds)
// ---------------------------------------------------------------------------

RunResult run_merge(const SystemParams& params, std::span<MemberCtx> group_a,
                    std::span<MemberCtx> group_b, net::Network& network) {
  RunResult result;
  check_ring_order(group_a);
  check_ring_order(group_b);
  const std::size_t n = group_a.size();
  const std::size_t m_sz = group_b.size();
  if (n < 2 || m_sz < 2) throw std::invalid_argument("run_merge: both groups need >= 2");

  MemberCtx& u1 = group_a[0];
  MemberCtx& ub = group_b[0];  // the paper's U_{n+1}
  const std::vector<std::uint32_t> ring_a = u1.ring;
  const std::vector<std::uint32_t> ring_b = ub.ring;
  std::vector<std::uint32_t> merged = ring_a;
  merged.insert(merged.end(), ring_b.begin(), ring_b.end());
  const BigInt key_a = u1.key;
  const BigInt key_b = ub.key;
  const std::size_t z_bits = params.element_bits();
  const std::size_t sig_bits = params.gq_s_bits() + 160;

  const BigInt& z_n = u1.z_map.at(ring_a[n - 1]);        // A's last member
  const BigInt& z_nm = ub.z_map.at(ring_b[m_sz - 1]);    // B's last member

  // ---------------- Round 1: both controllers refresh and cross-announce.
  const BigInt r1_old = u1.r;
  const BigInt r1_new = mpint::random_range(*u1.rng, BigInt{1}, params.grp.q);
  u1.ledger.record(Op::kModExp);
  const BigInt z1_new = params.gpow(r1_new);
  u1.ledger.record(Op::kSignGenGq);
  const sig::GqSigner u1_signer(params.gq, u1.cred.id, u1.cred.gq_secret, params.ctx_n);
  const auto sig_u1 = u1_signer.sign(blob_z_bytes(id_z_bytes(u1.cred.id, z1_new), z_n), *u1.rng);

  const BigInt rb_old = ub.r;
  const BigInt rb_new = mpint::random_range(*ub.rng, BigInt{1}, params.grp.q);
  ub.ledger.record(Op::kModExp);
  const BigInt zb_new = params.gpow(rb_new);
  ub.ledger.record(Op::kSignGenGq);
  const sig::GqSigner ub_signer(params.gq, ub.cred.id, ub.cred.gq_secret, params.ctx_n);
  const auto sig_ub =
      ub_signer.sign(blob_z_bytes(id_z_bytes(ub.cred.id, zb_new), z_nm), *ub.rng);

  net::Message m1a;
  m1a.sender = u1.cred.id;
  m1a.type = "merge-r1-a";
  m1a.payload.put_u32("id", u1.cred.id);
  m1a.payload.put_int("z_new", z1_new);
  m1a.payload.put_int("z_last", z_n);
  m1a.payload.put_int("sig_s", sig_u1.s);
  m1a.payload.put_int("sig_c", sig_u1.c);
  put_ring_table(m1a.payload, u1);  // metadata for B's future state
  m1a.declared_bits = energy::wire::kIdBits + 2 * z_bits + sig_bits;

  net::Message m1b;
  m1b.sender = ub.cred.id;
  m1b.type = "merge-r1-b";
  m1b.payload.put_u32("id", ub.cred.id);
  m1b.payload.put_int("z_new", zb_new);
  m1b.payload.put_int("z_last", z_nm);
  m1b.payload.put_int("sig_s", sig_ub.s);
  m1b.payload.put_int("sig_c", sig_ub.c);
  put_ring_table(m1b.payload, ub);
  m1b.declared_bits = energy::wire::kIdBits + 2 * z_bits + sig_bits;

  std::vector<RoundSend> r1_sends;
  r1_sends.push_back(RoundSend{m1a, merged});
  r1_sends.push_back(RoundSend{m1b, merged});
  const RoundResult r1 = exchange_round(network, r1_sends, merged);
  result.retransmissions += r1.retransmissions;
  if (!r1.complete) return result;
  ++result.rounds;

  // Received copies used for all cross-group verification.
  const net::Message& m1b_at_u1 = r1.collected.at(u1.cred.id).at(ub.cred.id);
  const net::Message& m1a_at_ub = r1.collected.at(ub.cred.id).at(u1.cred.id);

  // ---------------- Round 2: controllers bridge and re-key.
  // U_1: verify sigma'_{n+1} (received copy), DH with the B controller, Eq. (7).
  u1.ledger.record(Op::kSignVerGq);
  {
    const sig::GqSignature s{m1b_at_u1.payload.get_int("sig_s"),
                             m1b_at_u1.payload.get_int("sig_c")};
    if (!sig::gq_verify(
            params.gq, *params.ctx_n, ub.cred.gq_identity,
            blob_z_bytes(id_z_bytes(ub.cred.id, m1b_at_u1.payload.get_int("z_new")),
                         m1b_at_u1.payload.get_int("z_last")),
            s)) {
      return result;
    }
  }
  u1.ledger.record(Op::kModExp);
  const BigInt bridge_at_a =
      params.ctx_p->exp(m1b_at_u1.payload.get_int("z_new"), r1_new);  // g^{r1' rb'}
  const BigInt& z2 = u1.z_map.at(ring_a[1 % n]);
  u1.ledger.record(Op::kModExp, 2);
  const BigInt k_star_a =
      rekey_star(*params.ctx_p, key_a, z2, z_n, params.grp.q - r1_old, z2,
                 m1b_at_u1.payload.get_int("z_last"), r1_new);
  u1.r = r1_new;

  net::Message m2a;
  m2a.sender = u1.cred.id;
  m2a.type = "merge-r2-a";
  m2a.payload.put_u32("id", u1.cred.id);
  {
    auto eg = seal_counted(u1, key_a, k_star_a, /*sequence=*/0);
    auto eb = seal_counted(u1, bridge_at_a, k_star_a, /*sequence=*/1);
    m2a.declared_bits = energy::wire::kIdBits + (eg.size() + eb.size()) * 8;
    m2a.payload.put_blob("ek_group", std::move(eg));
    m2a.payload.put_blob("ek_bridge", std::move(eb));
  }

  // U_{n+1}: verify sigma'_1 (received copy), DH, Eq. (8).
  ub.ledger.record(Op::kSignVerGq);
  {
    const sig::GqSignature s{m1a_at_ub.payload.get_int("sig_s"),
                             m1a_at_ub.payload.get_int("sig_c")};
    if (!sig::gq_verify(
            params.gq, *params.ctx_n, u1.cred.gq_identity,
            blob_z_bytes(id_z_bytes(u1.cred.id, m1a_at_ub.payload.get_int("z_new")),
                         m1a_at_ub.payload.get_int("z_last")),
            s)) {
      return result;
    }
  }
  ub.ledger.record(Op::kModExp);
  const BigInt bridge_at_b =
      params.ctx_p->exp(m1a_at_ub.payload.get_int("z_new"), rb_new);
  const BigInt& z_n2 = ub.z_map.at(ring_b[1 % m_sz]);  // z_{n+2}
  ub.ledger.record(Op::kModExp, 2);
  const BigInt k_star_b =
      rekey_star(*params.ctx_p, key_b, m1a_at_ub.payload.get_int("z_last"), z_n2, rb_new,
                 z_n2, z_nm, params.grp.q - rb_old);
  ub.r = rb_new;

  net::Message m2b;
  m2b.sender = ub.cred.id;
  m2b.type = "merge-r2-b";
  m2b.payload.put_u32("id", ub.cred.id);
  {
    auto eg = seal_counted(ub, key_b, k_star_b, /*sequence=*/0);
    auto eb = seal_counted(ub, bridge_at_b, k_star_b, /*sequence=*/1);
    m2b.declared_bits = energy::wire::kIdBits + (eg.size() + eb.size()) * 8;
    m2b.payload.put_blob("ek_group", std::move(eg));
    m2b.payload.put_blob("ek_bridge", std::move(eb));
  }

  std::vector<std::uint32_t> rx_a = ring_a;
  rx_a.push_back(ub.cred.id);
  std::vector<std::uint32_t> rx_b = ring_b;
  rx_b.push_back(u1.cred.id);
  std::vector<RoundSend> r2_sends;
  r2_sends.push_back(RoundSend{m2a, rx_a});
  r2_sends.push_back(RoundSend{m2b, rx_b});
  const RoundResult r2 = exchange_round(network, r2_sends, merged);
  result.retransmissions += r2.retransmissions;
  if (!r2.complete) return result;
  ++result.rounds;

  // ---------------- Round 3: controllers relay the peer group's K*
  // (decrypted from their received copies).
  const auto k_star_b_at_u1 = open_counted(
      u1, bridge_at_a,
      r2.collected.at(u1.cred.id).at(ub.cred.id).payload.get_blob("ek_bridge"),
      ub.cred.id, /*sequence=*/1);
  if (!k_star_b_at_u1.has_value()) return result;
  net::Message m3a;
  m3a.sender = u1.cred.id;
  m3a.type = "merge-r3-a";
  m3a.payload.put_u32("id", u1.cred.id);
  {
    auto ep = seal_counted(u1, key_a, *k_star_b_at_u1, /*sequence=*/2);
    m3a.declared_bits = energy::wire::kIdBits + ep.size() * 8;
    m3a.payload.put_blob("ek_peer", std::move(ep));
  }

  const auto k_star_a_at_ub = open_counted(
      ub, bridge_at_b,
      r2.collected.at(ub.cred.id).at(u1.cred.id).payload.get_blob("ek_bridge"),
      u1.cred.id, /*sequence=*/1);
  if (!k_star_a_at_ub.has_value()) return result;
  net::Message m3b;
  m3b.sender = ub.cred.id;
  m3b.type = "merge-r3-b";
  m3b.payload.put_u32("id", ub.cred.id);
  {
    auto ep = seal_counted(ub, key_b, *k_star_a_at_ub, /*sequence=*/2);
    m3b.declared_bits = energy::wire::kIdBits + ep.size() * 8;
    m3b.payload.put_blob("ek_peer", std::move(ep));
  }

  std::vector<RoundSend> r3_sends;
  r3_sends.push_back(RoundSend{m3a, ring_a});
  r3_sends.push_back(RoundSend{m3b, ring_b});
  const RoundResult r3 = exchange_round(network, r3_sends, merged);
  result.retransmissions += r3.retransmissions;
  if (!r3.complete) return result;
  ++result.rounds;

  // ---------------- Key computation: K' = K*_A * K*_B for everyone.
  const BigInt new_key = params.ctx_p->mul(k_star_a, *k_star_b_at_u1);

  const RingTable tbl_a = get_ring_table(m1a.payload);
  const RingTable tbl_b = get_ring_table(m1b.payload);

  auto finalize = [&](MemberCtx& m, const BigInt& star_own, const BigInt& star_peer) {
    m.key = params.ctx_p->mul(star_own, star_peer);
    if (m.key != new_key) throw std::logic_error("run_merge: key mismatch");
    m.ring = merged;
    // Union the z/t tables (metadata from the controllers' announcements).
    for (const auto& [id, z] : tbl_a.z) m.z_map.try_emplace(id, z);
    for (const auto& [id, z] : tbl_b.z) m.z_map.try_emplace(id, z);
    for (const auto& [id, t] : tbl_a.t) {
      if (!t.is_zero()) m.t_map.try_emplace(id, t);
    }
    for (const auto& [id, t] : tbl_b.t) {
      if (!t.is_zero()) m.t_map.try_emplace(id, t);
    }
    m.z_map[u1.cred.id] = z1_new;
    m.z_map[ub.cred.id] = zb_new;
  };

  for (MemberCtx& m : group_a) {
    if (m.cred.id == u1.cred.id) {
      finalize(m, k_star_a, *k_star_b_at_u1);
      continue;
    }
    const auto star_a = open_counted(
        m, key_a, r2.collected.at(m.cred.id).at(u1.cred.id).payload.get_blob("ek_group"),
        u1.cred.id, /*sequence=*/0);
    const auto star_b = open_counted(
        m, key_a, r3.collected.at(m.cred.id).at(u1.cred.id).payload.get_blob("ek_peer"),
        u1.cred.id, /*sequence=*/2);
    if (!star_a.has_value() || !star_b.has_value()) return result;
    finalize(m, *star_a, *star_b);
  }
  for (MemberCtx& m : group_b) {
    if (m.cred.id == ub.cred.id) {
      finalize(m, k_star_b, *k_star_a_at_ub);
      continue;
    }
    const auto star_b = open_counted(
        m, key_b, r2.collected.at(m.cred.id).at(ub.cred.id).payload.get_blob("ek_group"),
        ub.cred.id, /*sequence=*/0);
    const auto star_a = open_counted(
        m, key_b, r3.collected.at(m.cred.id).at(ub.cred.id).payload.get_blob("ek_peer"),
        ub.cred.id, /*sequence=*/2);
    if (!star_a.has_value() || !star_b.has_value()) return result;
    finalize(m, *star_b, *star_a);
  }

  result.success = true;
  result.key = new_key;
  return result;
}

}  // namespace idgka::gka
