// Adversarial tests: active tampering against the protocols, and a full
// reproduction of the tau-reuse weakness in the paper's Leave/Partition
// design (README, "Tau reuse").
//
// The tau-reuse attack: even-indexed survivors answer the fresh batch
// challenge c-bar with their *stored* commitment tau (the paper's Round 2:
// "s-bar_i = tau_i * S_Ui^c-bar"). Two such responses under distinct
// challenges c1 != c2 give an eavesdropper
//     s1 / s2 = S^(c1 - c2)  (mod n),
// and since S^e = H(U) is public, Bezout coefficients alpha*(c1-c2) +
// beta*e = 1 recover the member's long-term ID-based secret
//     S = (s1/s2)^alpha * H(U)^beta  (mod n).
// The test executes the attack end-to-end from sniffed broadcasts only,
// then shows the refresh-all-commitments countermeasure blocks it.
#include <gtest/gtest.h>

#include "gka/session.h"
#include "message_tamper.h"
#include "sig/gq.h"
#include "wire/codec.h"

namespace idgka::gka {
namespace {

Authority& test_authority() {
  static Authority authority(SecurityProfile::kTest, /*seed=*/9999);
  return authority;
}

std::vector<std::uint32_t> make_ids(std::size_t n, std::uint32_t base = 2000) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + static_cast<std::uint32_t>(i);
  return ids;
}

// ---------------------------------------------------------------------------
// Active tampering: single corrupted broadcasts must abort the run.
// ---------------------------------------------------------------------------

TEST(Tampering, CorruptedRound2ShareFailsBatchVerification) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(5), 1);
  const std::uint32_t victim = session.member_ids()[2];
  test::set_message_tamper(
      session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
        if (msg.type == "proposed-r2" && msg.sender == victim) {
          // Flip the GQ response s_i: Eq. (2) must reject the whole batch.
          auto s = msg.payload.get_int("s");
          net::Payload fresh;
          fresh.put_u32("id", msg.payload.get_u32("id"));
          fresh.put_int("x", msg.payload.get_int("x"));
          fresh.put_int("s", s + mpint::BigInt{1});
          msg.payload = fresh;
        }
        return true;
      });
  const RunResult result = session.form();
  EXPECT_FALSE(result.success);
}

TEST(Tampering, CorruptedXValueFailsLemma1ForHonestBd) {
  // Replace a Round-2 X with a consistent-looking but wrong value; the
  // signature covers X so the batch check itself must catch it. Tamper the
  // *unsigned* field pair coherently (both x and s would need the secret).
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4, 2100), 2);
  const std::uint32_t victim = session.member_ids()[1];
  test::set_message_tamper(
      session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
        if (msg.type == "proposed-r2" && msg.sender == victim) {
          net::Payload fresh;
          fresh.put_u32("id", msg.payload.get_u32("id"));
          fresh.put_int("x", msg.payload.get_int("x") + mpint::BigInt{1});
          fresh.put_int("s", msg.payload.get_int("s"));
          msg.payload = fresh;
        }
        return true;
      });
  EXPECT_FALSE(session.form().success);
}

TEST(Tampering, ForgedEcdsaSignatureRejected) {
  GroupSession session(test_authority(), Scheme::kBdEcdsa, make_ids(4, 2200), 3);
  const std::uint32_t victim = session.member_ids()[0];
  test::set_message_tamper(
      session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
        if (msg.type == "bd-r2" && msg.sender == victim) {
          net::Payload fresh;
          fresh.put_u32("id", msg.payload.get_u32("id"));
          fresh.put_int("x", msg.payload.get_int("x") + mpint::BigInt{1});
          fresh.put_int("sig_r", msg.payload.get_int("sig_r"));
          fresh.put_int("sig_s", msg.payload.get_int("sig_s"));
          msg.payload = fresh;
        }
        return true;
      });
  EXPECT_FALSE(session.form().success);
}

TEST(Tampering, SsnAuthenticatorForgeryRejected) {
  GroupSession session(test_authority(), Scheme::kSsn, make_ids(4, 2300), 4);
  const std::uint32_t victim = session.member_ids()[3];
  test::set_message_tamper(
      session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
        if (msg.type == "ssn-r2" && msg.sender == victim) {
          net::Payload fresh;
          fresh.put_u32("id", msg.payload.get_u32("id"));
          fresh.put_int("x", msg.payload.get_int("x") + mpint::BigInt{1});
          fresh.put_int("w", msg.payload.get_int("w"));
          fresh.put_int("a", msg.payload.get_int("a"));
          msg.payload = fresh;
        }
        return true;
      });
  EXPECT_FALSE(session.form().success);
}

TEST(Tampering, JoinSignatureForgeryRejected) {
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(4, 2400), 5);
  ASSERT_TRUE(session.form().success);
  test::set_message_tamper(
      session.mutable_network(), [&](net::Message& msg, std::uint32_t) {
        if (msg.type == "join-r1") {
          net::Payload fresh;
          fresh.put_u32("id", msg.payload.get_u32("id"));
          fresh.put_int("z", msg.payload.get_int("z") + mpint::BigInt{1});
          fresh.put_int("sig_s", msg.payload.get_int("sig_s"));
          fresh.put_int("sig_c", msg.payload.get_int("sig_c"));
          msg.payload = fresh;
        }
        return true;
      });
  EXPECT_FALSE(session.join(2490).success);
}

TEST(Tampering, CorruptedLeaveShareFailsAndLeavesStateUnchanged) {
  // One survivor's Round-2 response is corrupted on its way to one other
  // survivor. That receiver's batch check rejects it while every other
  // survivor verifies: the departure fails, and no survivor may keep a
  // half-applied ring, key or z table.
  GroupSession session(test_authority(), Scheme::kProposed, make_ids(7, 2500), 6);
  ASSERT_TRUE(session.form().success);
  const std::vector<std::uint32_t> ids = session.member_ids();
  const std::uint32_t leaver = ids[3];
  const std::uint32_t victim = ids[1];
  const std::uint32_t receiver = ids[5];

  struct Snapshot {
    std::vector<std::uint32_t> ring;
    BigInt key;
    std::map<std::uint32_t, BigInt> z_map;
    std::map<std::uint32_t, BigInt> t_map;
  };
  std::map<std::uint32_t, Snapshot> before;
  for (const MemberCtx& m : session.members()) {
    before[m.cred.id] = Snapshot{m.ring, m.key, m.z_map, m.t_map};
  }

  test::set_message_tamper(session.mutable_network(), [&](net::Message& msg, std::uint32_t to) {
    if (msg.type == "leave-r2" && msg.sender == victim && to == receiver) {
      net::Payload fresh;
      fresh.put_u32("id", msg.payload.get_u32("id"));
      fresh.put_int("x", msg.payload.get_int("x"));
      fresh.put_int("s", msg.payload.get_int("s") + mpint::BigInt{1});
      msg.payload = fresh;
    }
    return true;
  });
  EXPECT_FALSE(session.leave(leaver).success);

  ASSERT_EQ(session.members().size(), ids.size());
  for (const MemberCtx& m : session.members()) {
    const Snapshot& old = before.at(m.cred.id);
    EXPECT_EQ(m.ring, old.ring) << m.cred.id;
    EXPECT_EQ(m.key, old.key) << m.cred.id;
    EXPECT_EQ(m.z_map, old.z_map) << m.cred.id;
    EXPECT_EQ(m.t_map, old.t_map) << m.cred.id;
  }

  // The untouched state is consistent: the same departure succeeds once
  // the medium is honest again.
  session.mutable_network().set_frame_tamper_hook(nullptr);
  ASSERT_TRUE(session.leave(leaver).success);
  for (const MemberCtx& m : session.members()) EXPECT_EQ(m.key, session.key());
}

// ---------------------------------------------------------------------------
// The tau-reuse secret-recovery attack (paper weakness, reproduced).
// ---------------------------------------------------------------------------

// Everything the eavesdropper collects from the broadcast medium.
struct SniffedState {
  std::map<std::uint32_t, BigInt> t;      // current commitment t per member
  std::map<std::uint32_t, BigInt> z;      // current z per member
  struct R2 {
    BigInt s;
    BigInt c;  // challenge the eavesdropper computed for that round
  };
  std::vector<std::map<std::uint32_t, R2>> rounds;  // per leave event
};

TEST(TauReuseAttack, RecoversLongTermSecretFromTwoLeaves) {
  Authority& authority = test_authority();
  const SystemParams& params = authority.params();
  const std::size_t n = 6;
  GroupSession session(authority, Scheme::kProposed, make_ids(n, 2500), 6);

  SniffedState sniffed;
  std::vector<std::uint32_t> ring = session.member_ids();
  std::map<std::uint32_t, BigInt> round_s;  // r2 responses of the current event

  // The eavesdropper works from the air interface: it receives the raw
  // frame bytes and parses them itself with the public codec — no typed
  // object ever reaches it.
  session.mutable_network().set_frame_sniffer([&](const wire::Frame& frame) {
    const net::Message msg = wire::decode(frame.bytes());
    if (msg.type == "proposed-r1" || msg.type == "leave-r1") {
      sniffed.t[msg.sender] = msg.payload.get_int("t");
      sniffed.z[msg.sender] = msg.payload.get_int("z");
    } else if (msg.type == "proposed-r2" || msg.type == "leave-r2") {
      round_s[msg.sender] = msg.payload.get_int("s");
    }
  });

  ASSERT_TRUE(session.form().success);
  round_s.clear();

  // The victim: ring position 2 (even-indexed) — it will reuse its stored
  // commitment in every subsequent leave.
  const std::uint32_t victim = ring[1];

  auto harvest = [&](const std::vector<std::uint32_t>& survivors) {
    // Eavesdropper recomputes the shared challenge c-bar = H(T-bar||Z-bar)
    // from sniffed material only.
    BigInt t_prod{1};
    BigInt z_prod{1};
    for (const std::uint32_t id : survivors) {
      t_prod = mpint::mod_mul(t_prod, sniffed.t.at(id), params.gq.n);
      z_prod = mpint::mod_mul(z_prod, sniffed.z.at(id), params.grp.p);
    }
    const BigInt c = sig::gq_challenge(t_prod.to_bytes_be(), z_prod.to_bytes_be());
    std::map<std::uint32_t, SniffedState::R2> round;
    for (const auto& [id, s] : round_s) round[id] = SniffedState::R2{s, c};
    sniffed.rounds.push_back(std::move(round));
    round_s.clear();
  };

  // Two leave events (tail members depart); the victim stays even-indexed.
  ASSERT_TRUE(session.leave(ring[n - 1]).success);
  harvest(session.member_ids());
  ASSERT_TRUE(session.leave(ring[n - 2]).success);
  harvest(session.member_ids());

  const auto& r1 = sniffed.rounds[0].at(victim);
  const auto& r2 = sniffed.rounds[1].at(victim);
  ASSERT_NE(r1.c, r2.c);

  // s1/s2 = S^(c1-c2); a Bezout pair d*alpha + e*beta == 1 recovers S:
  // alpha = d^{-1} mod e, beta = (1 - d*alpha)/e (exact).
  const BigInt d = r1.c - r2.c;
  ASSERT_TRUE(mpint::gcd(d, params.gq.e).is_one()) << "gcd(c1-c2, e) must be 1 for the attack";
  const BigInt alpha = mpint::mod_inverse(d, params.gq.e);
  const BigInt beta = (BigInt{1} - d * alpha) / params.gq.e;
  ASSERT_EQ(d * alpha + params.gq.e * beta, BigInt{1});
  const BigInt ratio =
      mpint::mod_mul(r1.s, mpint::mod_inverse(r2.s, params.gq.n), params.gq.n);
  const BigInt h_u = sig::gq_hash_id(params.gq, victim);
  const mpint::ModContext& ctx_n = *params.ctx_n;
  const BigInt recovered = ctx_n.mul(ctx_n.exp(ratio, alpha), ctx_n.exp(h_u, beta));

  // The recovered value is the victim's PKG-extracted long-term secret:
  // verify the key equation S^e == H(U) and forge a signature with it.
  EXPECT_EQ(ctx_n.exp(recovered, params.gq.e), h_u);
  hash::HmacDrbg rng(1, "forge");
  const sig::GqSigner forger(params.gq, victim, recovered);
  const std::vector<std::uint8_t> msg = {'p', 'w', 'n'};
  EXPECT_TRUE(sig::gq_verify(params.gq, *params.ctx_n, sig::gq_identity(params.gq, victim), msg,
                             forger.sign(msg, rng)));
}

TEST(TauReuseAttack, RefreshAllCountermeasureBlocksIt) {
  Authority& authority = test_authority();
  const std::size_t n = 6;
  GroupSession session(authority, Scheme::kProposed, make_ids(n, 2600), 7);
  session.set_refresh_all_commitments(true);

  // With the countermeasure, every survivor's t changes each event, so the
  // same tau never answers two distinct challenges.
  std::map<std::uint32_t, std::vector<BigInt>> t_seen;
  session.mutable_network().set_frame_sniffer([&](const wire::Frame& frame) {
    const net::Message msg = wire::decode(frame);
    if (msg.type == "proposed-r1" || msg.type == "leave-r1") {
      t_seen[msg.sender].push_back(msg.payload.get_int("t"));
    }
  });

  ASSERT_TRUE(session.form().success);
  const auto ring = session.member_ids();
  ASSERT_TRUE(session.leave(ring[n - 1]).success);
  ASSERT_TRUE(session.leave(ring[n - 2]).success);

  const std::uint32_t victim = ring[1];  // even-indexed
  // Three commitments observed (form + 2 leaves), all distinct.
  ASSERT_EQ(t_seen.at(victim).size(), 3U);
  EXPECT_NE(t_seen.at(victim)[0], t_seen.at(victim)[1]);
  EXPECT_NE(t_seen.at(victim)[1], t_seen.at(victim)[2]);
}

TEST(TauReuseAttack, DefaultPaperBehaviourReusesCommitments) {
  // Confirms we reproduce the paper faithfully by default: even-indexed
  // survivors broadcast no fresh t (they reuse), odd-indexed do refresh.
  Authority& authority = test_authority();
  GroupSession session(authority, Scheme::kProposed, make_ids(6, 2700), 8);
  std::map<std::uint32_t, int> r1_broadcasts;
  session.mutable_network().set_frame_sniffer([&](const wire::Frame& frame) {
    if (wire::decode(frame).type == "leave-r1") ++r1_broadcasts[frame.sender()];
  });
  ASSERT_TRUE(session.form().success);
  const auto ring = session.member_ids();
  ASSERT_TRUE(session.leave(ring[5]).success);
  EXPECT_EQ(r1_broadcasts.count(ring[0]), 1U);  // odd position 1: refreshes
  EXPECT_EQ(r1_broadcasts.count(ring[1]), 0U);  // even position 2: reuses
  EXPECT_EQ(r1_broadcasts.count(ring[2]), 1U);  // odd position 3
  EXPECT_EQ(r1_broadcasts.count(ring[3]), 0U);  // even position 4
}

}  // namespace
}  // namespace idgka::gka
