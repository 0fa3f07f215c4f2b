#include "hash/hmac.h"

namespace idgka::hash {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const auto d = Sha256::digest(key);
    std::copy(d.begin(), d.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }

  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> data) const {
  Sha256 inner = inner_;
  inner.update(data);
  const auto inner_digest = inner.finalize();

  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finalize();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> data) {
  return HmacSha256(key).mac(data);
}

}  // namespace idgka::hash
