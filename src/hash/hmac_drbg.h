// HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//
// The library's cryptographic randomness source. Deterministic under a fixed
// seed, which the network simulator exploits: each protocol node gets an
// independent DRBG derived from (master seed, node id), making entire
// multi-party protocol executions reproducible bit-for-bit. The HMAC key
// changes only on update(), so the generator keeps it as an HmacSha256
// midstate: a 160-bit draw costs 8 SHA-256 compressions instead of 12.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "hash/hmac.h"
#include "mpint/random.h"

namespace idgka::hash {

/// Deterministic random bit generator implementing mpint::Rng.
class HmacDrbg final : public mpint::Rng {
 public:
  /// Instantiates from seed material (entropy || nonce || personalization).
  explicit HmacDrbg(std::span<const std::uint8_t> seed);
  /// Convenience: seeds from a string label.
  explicit HmacDrbg(std::string_view label);
  /// Convenience: seeds from a 64-bit value and a domain-separation label.
  HmacDrbg(std::uint64_t seed, std::string_view label);

  void fill(std::span<std::uint8_t> out) override;

  /// Mixes additional entropy/context into the state.
  void reseed(std::span<const std::uint8_t> material);

 private:
  void update(std::span<const std::uint8_t> provided);

  HmacSha256 mac_{std::array<std::uint8_t, 32>{}};  // key K, absorbed; K starts all-zero
  std::array<std::uint8_t, 32> v_{};
};

}  // namespace idgka::hash
