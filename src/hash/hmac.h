// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/sha256.h"

namespace idgka::hash {

/// HMAC-SHA256 under one key, with the key absorbed once: holds the SHA-256
/// states after the ipad and opad blocks, so each MAC costs its message
/// blocks plus one outer block instead of re-hashing both pads.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// HMAC-SHA256 of `data` under the key.
  [[nodiscard]] Sha256::Digest mac(std::span<const std::uint8_t> data) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// HMAC-SHA256 of `data` under `key`.
[[nodiscard]] Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                                         std::span<const std::uint8_t> data);

}  // namespace idgka::hash
