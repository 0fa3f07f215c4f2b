// ECDSA (ANSI X9.62 / FIPS 186) — the paper's "BD with 160-bit ECDSA"
// certificate-based baseline, on secp160r1 by default.
#pragma once

#include <cstdint>
#include <span>

#include "ec/curve.h"
#include "mpint/random.h"

namespace idgka::sig {

using mpint::BigInt;

struct EcdsaKeyPair {
  BigInt d;      ///< private scalar in [1, n)
  ec::Point q;   ///< public point d*G
};

struct EcdsaSignature {
  BigInt r;
  BigInt s;
};

[[nodiscard]] EcdsaKeyPair ecdsa_generate_keypair(const ec::Curve& curve, mpint::Rng& rng);

[[nodiscard]] EcdsaSignature ecdsa_sign(const ec::Curve& curve, const EcdsaKeyPair& key,
                                        std::span<const std::uint8_t> message,
                                        mpint::Rng& rng);

[[nodiscard]] bool ecdsa_verify(const ec::Curve& curve, const ec::Point& pub,
                                std::span<const std::uint8_t> message,
                                const EcdsaSignature& sig);

}  // namespace idgka::sig
