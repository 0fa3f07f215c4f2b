// Minimal certificate infrastructure for the certificate-based baselines.
//
// The paper's "BD with ECDSA" and "BD with DSA" protocols require each user
// to transmit its certificate and receive + verify n-1 peer certificates.
// This module provides a compact X.509-flavoured certificate: a serialized
// to-be-signed (TBS) section carrying the subject identity and public key,
// signed by a certificate authority with DSA or ECDSA.
//
// Wire sizes in the paper's accounting: 263-byte DSA certificate and
// 86-byte ECDSA certificate (Table 3); the energy model prices certificates
// with those constants while the simulator additionally tracks the true
// serialized size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sig/dsa.h"
#include "sig/ecdsa.h"

namespace idgka::pki {

using mpint::BigInt;

/// Signature algorithm used by a CA / certificate.
enum class CertAlgorithm : std::uint8_t { kDsa = 1, kEcdsa = 2 };

/// A compact certificate binding a 32-bit subject identity to a public key.
struct Certificate {
  CertAlgorithm algorithm = CertAlgorithm::kDsa;
  std::uint32_t subject_id = 0;
  std::uint64_t serial = 0;
  std::uint64_t not_before = 0;  ///< epoch seconds
  std::uint64_t not_after = 0;   ///< epoch seconds
  std::vector<std::uint8_t> subject_public_key;  ///< serialized key material
  // CA signature over the TBS bytes.
  BigInt sig_r;
  BigInt sig_s;

  /// Serialized to-be-signed bytes (everything except the signature).
  [[nodiscard]] std::vector<std::uint8_t> tbs_bytes() const;
};

/// A certificate authority holding a DSA or ECDSA issuing key.
class CertificateAuthority {
 public:
  /// DSA-issuing CA over a caller-owned mod-p context for `params.p`
  /// (gka::Authority already caches one for the same parameters), or its
  /// own when `ctx_p` is null.
  CertificateAuthority(sig::DsaParams params,
                       std::shared_ptr<const mpint::ModContext> ctx_p, mpint::Rng& rng);
  /// ECDSA-issuing CA on the given curve.
  CertificateAuthority(const ec::Curve& curve, mpint::Rng& rng);

  [[nodiscard]] CertAlgorithm algorithm() const { return algorithm_; }

  /// Issues a certificate for (subject_id, public key bytes).
  [[nodiscard]] Certificate issue(std::uint32_t subject_id,
                                  std::vector<std::uint8_t> public_key, mpint::Rng& rng,
                                  std::uint64_t validity_seconds = 365ULL * 86400);

  /// Verifies a certificate issued by this CA (signature + validity window).
  [[nodiscard]] bool verify(const Certificate& cert, std::uint64_t at_time = 0) const;

 private:
  CertAlgorithm algorithm_;
  // DSA state
  std::optional<sig::DsaParams> dsa_params_;
  std::shared_ptr<const mpint::ModContext> dsa_ctx_;  ///< cached mod-p context
  std::optional<sig::DsaKeyPair> dsa_key_;
  // ECDSA state
  const ec::Curve* curve_ = nullptr;
  std::optional<sig::EcdsaKeyPair> ec_key_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t now_ = 1'750'000'000;  ///< simulated clock (epoch seconds)
};

/// Serializes an ECDSA public point (uncompressed x||y).
[[nodiscard]] std::vector<std::uint8_t> encode_ec_public(const ec::Curve& curve,
                                                         const ec::Point& pub);
/// Parses the encoding produced by encode_ec_public.
[[nodiscard]] std::optional<ec::Point> decode_ec_public(const ec::Curve& curve,
                                                        std::span<const std::uint8_t> bytes);

/// Serializes a DSA public key y.
[[nodiscard]] std::vector<std::uint8_t> encode_dsa_public(const sig::DsaParams& params,
                                                          const BigInt& y);
[[nodiscard]] std::optional<BigInt> decode_dsa_public(const sig::DsaParams& params,
                                                      std::span<const std::uint8_t> bytes);

}  // namespace idgka::pki
