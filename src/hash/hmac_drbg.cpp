#include "hash/hmac_drbg.h"

#include <algorithm>
#include <vector>

namespace idgka::hash {

HmacDrbg::HmacDrbg(std::span<const std::uint8_t> seed) {
  v_.fill(0x01);
  update(seed);
}

HmacDrbg::HmacDrbg(std::uint64_t seed, std::string_view label) {
  v_.fill(0x01);
  std::vector<std::uint8_t> material;
  material.reserve(8 + label.size());
  for (int i = 7; i >= 0; --i) material.push_back(static_cast<std::uint8_t>(seed >> (i * 8)));
  material.insert(material.end(), label.begin(), label.end());
  update(material);
}

void HmacDrbg::update(std::span<const std::uint8_t> provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  std::vector<std::uint8_t> buf(v_.begin(), v_.end());
  buf.push_back(0x00);
  buf.insert(buf.end(), provided.begin(), provided.end());
  mac_ = HmacSha256(mac_.mac(buf));
  v_ = mac_.mac(v_);
  if (!provided.empty()) {
    buf.assign(v_.begin(), v_.end());
    buf.push_back(0x01);
    buf.insert(buf.end(), provided.begin(), provided.end());
    mac_ = HmacSha256(mac_.mac(buf));
    v_ = mac_.mac(v_);
  }
}

void HmacDrbg::fill(std::span<std::uint8_t> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    v_ = mac_.mac(v_);
    const std::size_t take = std::min(v_.size(), out.size() - produced);
    std::copy_n(v_.begin(), take, out.begin() + static_cast<std::ptrdiff_t>(produced));
    produced += take;
  }
  update({});
}

}  // namespace idgka::hash
