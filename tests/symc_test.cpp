// AES / modes / KDF / SealedBox tests.
#include <gtest/gtest.h>

#include "hash/hmac_drbg.h"
#include "symc/aes.h"
#include "symc/kdf.h"
#include "symc/modes.h"
#include "symc/sealed_box.h"

namespace idgka::symc {
namespace {

using Block = Aes128::Block;

Block block_from_hex(std::string_view s) {
  Block b{};
  for (std::size_t i = 0; i < 16; ++i) {
    auto nib = [&](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    b[i] = static_cast<std::uint8_t>((nib(s[2 * i]) << 4) | nib(s[2 * i + 1]));
  }
  return b;
}

TEST(Aes128, Fips197Vector) {
  // FIPS-197 Appendix B.
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const Block expect_ct = block_from_hex("3925841d02dc09fbdc118597196a0b32");
  Aes128 aes{std::span<const std::uint8_t, 16>(key)};
  Block b = pt;
  aes.encrypt_block(b);
  EXPECT_EQ(b, expect_ct);
  aes.decrypt_block(b);
  EXPECT_EQ(b, pt);
}

TEST(Aes128, NistSp800_38aEcbVectors) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128 aes{std::span<const std::uint8_t, 16>(key)};
  const std::pair<const char*, const char*> cases[] = {
      {"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
      {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
      {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
  };
  for (const auto& [pt_hex, ct_hex] : cases) {
    Block b = block_from_hex(pt_hex);
    aes.encrypt_block(b);
    EXPECT_EQ(b, block_from_hex(ct_hex)) << pt_hex;
  }
}

TEST(Aes128, DecryptInvertsEncryptRandom) {
  hash::HmacDrbg rng(1, "aes");
  for (int i = 0; i < 50; ++i) {
    Block key{};
    Block pt{};
    rng.fill(key);
    rng.fill(pt);
    Aes128 aes{std::span<const std::uint8_t, 16>(key)};
    Block b = pt;
    aes.encrypt_block(b);
    EXPECT_NE(b, pt);
    aes.decrypt_block(b);
    EXPECT_EQ(b, pt);
  }
}

TEST(Aes128, NistCtrFirstBlock) {
  // SP 800-38A F.5.1: the first CTR block is pt XOR E(counter block), so
  // it pins the block cipher on a published vector.
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128 aes{std::span<const std::uint8_t, 16>(key)};
  Block keystream = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  aes.encrypt_block(keystream);
  const Block pt1 = block_from_hex("6bc1bee22e409f96e93d7e117393172a");
  for (std::size_t i = 0; i < keystream.size(); ++i) keystream[i] ^= pt1[i];
  EXPECT_EQ(keystream, block_from_hex("874d6191b620e3261bef6864990db6ce"));
}

TEST(Modes, CbcRoundTripAndPadding) {
  hash::HmacDrbg rng(3, "cbc");
  Block key{};
  Block iv{};
  rng.fill(key);
  rng.fill(iv);
  Aes128 aes{std::span<const std::uint8_t, 16>(key)};
  for (std::size_t len : {0U, 1U, 15U, 16U, 17U, 31U, 32U, 257U}) {
    std::vector<std::uint8_t> pt(len);
    rng.fill(pt);
    const auto ct = cbc_encrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0U);
    EXPECT_GT(ct.size(), len);  // always at least one padding byte
    EXPECT_EQ(cbc_decrypt(aes, iv, ct), pt) << "len=" << len;
  }
}

TEST(Modes, CbcRejectsCorruptPadding) {
  hash::HmacDrbg rng(4, "cbc2");
  Block key{};
  Block iv{};
  rng.fill(key);
  rng.fill(iv);
  Aes128 aes{std::span<const std::uint8_t, 16>(key)};
  std::vector<std::uint8_t> pt(20, 0xAB);
  auto ct = cbc_encrypt(aes, iv, pt);
  EXPECT_THROW((void)cbc_decrypt(aes, iv, std::span<const std::uint8_t>(ct.data(), 8)),
               PaddingError);
  EXPECT_THROW((void)cbc_decrypt(aes, iv, std::span<const std::uint8_t>(ct.data(), 0)),
               PaddingError);
}

TEST(Kdf, DistinctKeysForDistinctInputs) {
  const auto k1 = derive_key(mpint::BigInt{12345});
  const auto k2 = derive_key(mpint::BigInt{12346});
  const auto k3 = derive_key(mpint::BigInt{12345}, "other-label");
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_EQ(k1, derive_key(mpint::BigInt{12345}));
}

TEST(Kdf, IvDependsOnContext) {
  const mpint::BigInt k{999};
  EXPECT_NE(derive_iv(k, 1, 0), derive_iv(k, 2, 0));
  EXPECT_NE(derive_iv(k, 1, 0), derive_iv(k, 1, 1));
  EXPECT_EQ(derive_iv(k, 1, 0), derive_iv(k, 1, 0));
}

TEST(SealedBox, SealOpenRoundTrip) {
  const mpint::BigInt group_key = mpint::BigInt::from_hex("abcdef0123456789");
  const SealedBox box(group_key);
  const mpint::BigInt payload = mpint::BigInt::from_dec("987654321987654321");
  const auto sealed = box.seal(payload, /*sender_id=*/7);
  const auto opened = box.open(sealed, /*expected_sender=*/7);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST(SealedBox, RejectsWrongSenderIdentity) {
  const SealedBox box(mpint::BigInt{42});
  const auto sealed = box.seal(mpint::BigInt{1000}, 7);
  // Paper's validity check: decrypted identity must match the claimed sender.
  EXPECT_FALSE(box.open(sealed, 8).has_value());
}

TEST(SealedBox, RejectsWrongGroupKey) {
  const SealedBox good(mpint::BigInt{42});
  const SealedBox bad(mpint::BigInt{43});
  const auto sealed = good.seal(mpint::BigInt{1000}, 7);
  EXPECT_FALSE(bad.open(sealed, 7).has_value());
}

TEST(SealedBox, RejectsTamperedCiphertext) {
  const SealedBox box(mpint::BigInt{42});
  auto sealed = box.seal(mpint::BigInt{1000}, 7);
  int rejected = 0;
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto copy = sealed;
    copy[i] ^= 0x01;
    if (!box.open(copy, 7).has_value()) ++rejected;
  }
  // CBC + identity suffix: flipping any byte must corrupt either padding or
  // the identity with overwhelming probability. Allow no more than one fluke.
  EXPECT_GE(rejected, static_cast<int>(sealed.size()) - 1);
}

TEST(SealedBox, LargePayloadRoundTrip) {
  const SealedBox box(mpint::BigInt::from_hex("1234567890abcdef1234567890abcdef"));
  hash::HmacDrbg rng(5, "payload");
  const auto payload = mpint::random_bits(rng, 2048);
  const auto sealed = box.seal(payload, 1001, /*sequence=*/5);
  const auto opened = box.open(sealed, 1001, /*sequence=*/5);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
  // Wrong sequence => different IV => garbage.
  EXPECT_FALSE(box.open(sealed, 1001, 6).has_value());
}

}  // namespace
}  // namespace idgka::symc
