// The Guillou-Quisquater ID-based signature variant of Section 3 of the
// paper, plus the shared-challenge batch verification (Eq. 2) that powers
// the proposed GKA protocol.
//
// Setup/Extract (PKG):  n = p'q', gcd(e, phi(n)) = 1, d = e^{-1} mod phi(n),
//                       S_ID = H(ID)^d mod n.
// Sign:                 t = tau^e mod n, c = H(t || M), s = tau * S_ID^c.
// Verify:               c == H(s^e * H(ID)^{-c} mod n || M).
//
// The GKA protocol splits signing into commit (Round 1: broadcast t_i) and
// respond (Round 2: all signers share the challenge c = H(T || Z) with
// T = prod t_i), enabling the n-signature batch check
//   c == H((prod s_i)^e * (prod H(U_i))^{-c} mod n || Z).
//
// H(U) is a fixed public value per member, so verifiers hold each signer as
// a GqIdentity (U, H(U), H(U)^{-1} mod n) built once; verification then
// costs no hashing or inversion beyond the challenge itself.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpint/bigint.h"
#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "mpint/random.h"

namespace idgka::sig {

using mpint::BigInt;

/// Public GQ parameters (the PKG's `params` = (n, e, H)).
struct GqParams {
  BigInt n;  ///< RSA-type modulus p'q' (factors secret).
  BigInt e;  ///< Public verification exponent, coprime to phi(n).
};

/// H(ID): hashes a 32-bit identity into Z_n^* (paper: users carry 32-bit
/// identities). Deterministic; domain-separated from message hashing.
[[nodiscard]] BigInt gq_hash_id(const GqParams& params, std::uint32_t id);

/// A signer as its verifiers hold it: the identity U with H(U) and
/// H(U)^{-1} mod n precomputed.
struct GqIdentity {
  std::uint32_t id = 0;
  BigInt h;      ///< H(U) == gq_hash_id(params, id)
  BigInt h_inv;  ///< H(U)^{-1} mod n
};

/// Builds U's identity: gq_hash_id (whose unit check is one binary-GCD run)
/// plus one mod_inverse for H(U)^{-1} mod n.
[[nodiscard]] GqIdentity gq_identity(const GqParams& params, std::uint32_t id);

/// Challenge hash c = H(first || second), mapping into a positive integer of
/// at most 256 bits (the paper's l-bit one-way hash H).
[[nodiscard]] BigInt gq_challenge(std::span<const std::uint8_t> first,
                                  std::span<const std::uint8_t> second);

/// A standalone GQ signature (s, c).
struct GqSignature {
  BigInt s;
  BigInt c;
};

/// The Private Key Generator: owns the master keys (p', q', d).
class GqPkg {
 public:
  /// Generates fresh parameters. `modulus_bits` = |n| (paper: 1024).
  GqPkg(mpint::Rng& rng, std::size_t modulus_bits, int mr_rounds = 32);
  /// Wraps externally generated key material (tests, fixed profiles).
  explicit GqPkg(mpint::GqModulus modulus);

  [[nodiscard]] const GqParams& params() const { return params_; }

  /// Extract: S_ID = H(ID)^d mod n, from the identity's precomputed H(ID).
  /// In deployment this travels over a secure channel to the user.
  [[nodiscard]] BigInt extract(const GqIdentity& identity) const;

 private:
  mpint::GqModulus key_;
  GqParams params_;
  mpint::ModContext ctx_;
};

/// Per-user signing context holding the ID-based secret S_ID.
class GqSigner {
 public:
  /// Builds a private mod-n context for the signer's modulus.
  GqSigner(GqParams params, std::uint32_t id, BigInt secret_key);
  /// Shares a caller-owned mod-n context (the GKA protocols construct one
  /// signer per member per round; re-deriving Montgomery state each time
  /// would dominate the signing cost).
  GqSigner(GqParams params, std::uint32_t id, BigInt secret_key,
           std::shared_ptr<const mpint::ModContext> ctx);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const GqParams& params() const { return params_; }

  /// Round-1 material: tau random in Z_n^*, t = tau^e mod n.
  struct Commitment {
    BigInt tau;  ///< secret
    BigInt t;    ///< broadcast
  };
  [[nodiscard]] Commitment commit(mpint::Rng& rng) const;

  /// Round-2 response for an externally supplied challenge: s = tau * S_ID^c.
  [[nodiscard]] BigInt respond(const Commitment& commitment, const BigInt& c) const;

  /// One-shot signature over a message: sigma = (s, c), c = H(t || M).
  [[nodiscard]] GqSignature sign(std::span<const std::uint8_t> message, mpint::Rng& rng) const;

 private:
  GqParams params_;
  std::uint32_t id_;
  BigInt secret_;
  std::shared_ptr<const mpint::ModContext> ctx_;
};

/// Verifies a standalone signature: c == H(s^e * H(ID)^{-c} || M), reusing
/// the caller's mod-n context.
[[nodiscard]] bool gq_verify(const GqParams& params, const mpint::ModContext& ctx,
                             const GqIdentity& signer, std::span<const std::uint8_t> message,
                             const GqSignature& sig);

/// Batch verification (Eq. 2 of the paper). All signers share challenge `c`;
/// `z_bytes` is the serialized Z that was hashed into the challenge.
/// Checks c == H((prod s_i)^e * (prod H(U_i)^{-1})^c mod n || Z), which is
/// the paper's residue since (prod H(U_i))^{-1} = prod H(U_i)^{-1} mod n.
[[nodiscard]] bool gq_batch_verify(const GqParams& params, const mpint::ModContext& ctx,
                                   std::span<const GqIdentity> signers,
                                   std::span<const BigInt> s_values, const BigInt& c,
                                   std::span<const std::uint8_t> z_bytes);

}  // namespace idgka::sig
