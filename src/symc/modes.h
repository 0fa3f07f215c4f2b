// Block-cipher mode of operation over Aes128: CBC with PKCS#7.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "symc/aes.h"

namespace idgka::symc {

/// Thrown by CBC decryption on malformed padding.
class PaddingError : public std::runtime_error {
 public:
  PaddingError() : std::runtime_error("symc: bad PKCS#7 padding") {}
};

/// CBC encryption with PKCS#7 padding.
[[nodiscard]] std::vector<std::uint8_t> cbc_encrypt(const Aes128& cipher,
                                                    const Aes128::Block& iv,
                                                    std::span<const std::uint8_t> plaintext);

/// CBC decryption; throws PaddingError on invalid padding or length.
[[nodiscard]] std::vector<std::uint8_t> cbc_decrypt(const Aes128& cipher,
                                                    const Aes128::Block& iv,
                                                    std::span<const std::uint8_t> ciphertext);

}  // namespace idgka::symc
