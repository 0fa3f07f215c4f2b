// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash H(.) used by the GQ signature variant, the batch
// challenge c = H(T || Z), DSA/ECDSA/SOK message digests, MapToPoint, and the
// KDF that turns Burmester-Desmedt group keys into AES keys.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace idgka::hash {

/// Incremental SHA-256.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs bytes; may be called repeatedly.
  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view s);

  /// Finalizes and returns the digest. The object must not be reused after.
  [[nodiscard]] Digest finalize();

  /// One-shot convenience.
  static Digest digest(std::span<const std::uint8_t> data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace idgka::hash
