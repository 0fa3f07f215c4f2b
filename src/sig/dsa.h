// DSA (FIPS 186) over a Schnorr group — the paper's "BD with 1024-bit DSA"
// certificate-based baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpint/bigint.h"
#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "mpint/random.h"

namespace idgka::sig {

using mpint::BigInt;

/// Domain parameters (p, q, g): |p| = 1024, |q| = 160 in the paper profile.
struct DsaParams {
  BigInt p;
  BigInt q;
  BigInt g;
};

struct DsaKeyPair {
  BigInt x;  ///< private, in [1, q)
  BigInt y;  ///< public, g^x mod p
};

struct DsaSignature {
  BigInt r;
  BigInt s;
};

/// A DSA signature extended with the full commitment R = g^k mod p (the
/// group element whose reduction mod q is `sig.r`). Standard DSA discards
/// R, which is exactly what blocks batch verification — the batched check
/// needs the unreduced element. Carrying R costs |p| extra wire bits but
/// lets n verifications collapse into one multi-exponentiation.
struct DsaCommittedSignature {
  DsaSignature sig;
  BigInt commitment;
};

/// Generates a fresh Schnorr group of the given sizes.
[[nodiscard]] DsaParams dsa_generate_params(mpint::Rng& rng, std::size_t p_bits,
                                            std::size_t q_bits, int mr_rounds = 32);

/// Generates a key pair under `params`, reusing the caller's mod-p context.
[[nodiscard]] DsaKeyPair dsa_generate_keypair(const DsaParams& params,
                                              const mpint::ModContext& ctx_p,
                                              mpint::Rng& rng);

/// Signs SHA-256(message) truncated to |q| bits, reusing the caller's mod-p
/// context.
[[nodiscard]] DsaSignature dsa_sign(const DsaParams& params, const mpint::ModContext& ctx_p,
                                    const DsaKeyPair& key,
                                    std::span<const std::uint8_t> message, mpint::Rng& rng);

/// Verifies a signature against public key `y`, reusing the caller's mod-p
/// context.
[[nodiscard]] bool dsa_verify(const DsaParams& params, const mpint::ModContext& ctx_p,
                              const BigInt& y, std::span<const std::uint8_t> message,
                              const DsaSignature& sig);

/// Signs like dsa_sign but additionally returns the commitment R = g^k, so
/// the signature can enter a batch verification.
[[nodiscard]] DsaCommittedSignature dsa_sign_committed(const DsaParams& params,
                                                       const mpint::ModContext& ctx_p,
                                                       const DsaKeyPair& key,
                                                       std::span<const std::uint8_t> message,
                                                       mpint::Rng& rng);

/// Screening batch verification of n (public key, message, committed
/// signature) triples — the small-random-exponent combination behind
/// gq_batch_verify, applied to DSA: after the per-signature range checks
/// and the binding r_i == R_i mod q, a single equation
///   prod_i R_i^{t_i} == g^{sum_i t_i u1_i} * prod_i y_i^{t_i u2_i}  (mod p)
/// with 64-bit scalars t_i derived from an HMAC-DRBG seeded over the whole
/// batch (Fiat-Shamir style: a forger commits to the batch before seeing
/// its t_i) replaces n independent double exponentiations. Both sides run
/// through ModContext::multi_exp. Accepts iff every signature verifies,
/// modulo the 2^-64 screening bound; returns false on empty or mismatched
/// spans.
[[nodiscard]] bool dsa_batch_verify(const DsaParams& params, const mpint::ModContext& ctx_p,
                                    std::span<const BigInt> ys,
                                    std::span<const std::vector<std::uint8_t>> messages,
                                    std::span<const DsaCommittedSignature> sigs);

/// Wire size: r and s are |q| bits each (paper: 2 x 160 bits).
[[nodiscard]] std::size_t dsa_signature_bits(const DsaParams& params);

}  // namespace idgka::sig
