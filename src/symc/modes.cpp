#include "symc/modes.h"

#include <algorithm>

namespace idgka::symc {

std::vector<std::uint8_t> cbc_encrypt(const Aes128& cipher, const Aes128::Block& iv,
                                      std::span<const std::uint8_t> plaintext) {
  const std::size_t pad = Aes128::kBlockSize - plaintext.size() % Aes128::kBlockSize;
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  buf.insert(buf.end(), pad, static_cast<std::uint8_t>(pad));

  Aes128::Block chain = iv;
  for (std::size_t offset = 0; offset < buf.size(); offset += Aes128::kBlockSize) {
    Aes128::Block block;
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      block[i] = static_cast<std::uint8_t>(buf[offset + i] ^ chain[i]);
    }
    cipher.encrypt_block(block);
    std::copy(block.begin(), block.end(), buf.begin() + static_cast<std::ptrdiff_t>(offset));
    chain = block;
  }
  return buf;
}

std::vector<std::uint8_t> cbc_decrypt(const Aes128& cipher, const Aes128::Block& iv,
                                      std::span<const std::uint8_t> ciphertext) {
  if (ciphertext.empty() || ciphertext.size() % Aes128::kBlockSize != 0) {
    throw PaddingError();
  }
  std::vector<std::uint8_t> buf(ciphertext.begin(), ciphertext.end());
  Aes128::Block chain = iv;
  for (std::size_t offset = 0; offset < buf.size(); offset += Aes128::kBlockSize) {
    Aes128::Block block;
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(offset), Aes128::kBlockSize,
                block.begin());
    const Aes128::Block next_chain = block;
    cipher.decrypt_block(block);
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      buf[offset + i] = static_cast<std::uint8_t>(block[i] ^ chain[i]);
    }
    chain = next_chain;
  }
  const std::uint8_t pad = buf.back();
  if (pad == 0 || pad > Aes128::kBlockSize || pad > buf.size()) throw PaddingError();
  for (std::size_t i = buf.size() - pad; i < buf.size(); ++i) {
    if (buf[i] != pad) throw PaddingError();
  }
  buf.resize(buf.size() - pad);
  return buf;
}

}  // namespace idgka::symc
