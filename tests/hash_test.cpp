// SHA-256 / HMAC / HMAC-DRBG tests against published vectors.
#include <gtest/gtest.h>

#include "hash/hmac.h"
#include "hash/hmac_drbg.h"
#include "hash/sha256.h"

namespace idgka::hash {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex(Sha256::digest(std::string_view{""})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(Sha256::digest(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::digest(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(std::string_view{msg})) << "split=" << split;
  }
}

TEST(Sha256, BoundarySizes) {
  // Exercise padding around the 55/56/64-byte boundaries.
  for (std::size_t len : {55U, 56U, 57U, 63U, 64U, 65U, 119U, 120U, 128U}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(std::string_view{msg});
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
  }
}

TEST(Hmac, Rfc4231Vectors) {
  // Case 1
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, Sha256::digest(std::string_view{""}))) .size(), 64U);
  const std::string_view data1 = "Hi There";
  EXPECT_EQ(hex(hmac_sha256(key, std::span<const std::uint8_t>(
                                     reinterpret_cast<const std::uint8_t*>(data1.data()),
                                     data1.size()))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");

  // Case 2: key "Jefe", data "what do ya want for nothing?"
  const std::string_view key2 = "Jefe";
  const std::string_view data2 = "what do ya want for nothing?";
  EXPECT_EQ(hex(hmac_sha256(
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(key2.data()), key2.size()),
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(data2.data()), data2.size()))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");

  // Case 6: 131-byte key (exceeds block size, must be hashed first).
  std::vector<std::uint8_t> key6(131, 0xaa);
  const std::string_view data6 = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(hex(hmac_sha256(key6, std::span<const std::uint8_t>(
                                      reinterpret_cast<const std::uint8_t*>(data6.data()),
                                      data6.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacDrbg, DeterministicUnderSeed) {
  HmacDrbg a(42, "test");
  HmacDrbg b(42, "test");
  std::array<std::uint8_t, 64> buf_a{};
  std::array<std::uint8_t, 64> buf_b{};
  a.fill(buf_a);
  b.fill(buf_b);
  EXPECT_EQ(buf_a, buf_b);

  HmacDrbg c(42, "other-label");
  std::array<std::uint8_t, 64> buf_c{};
  c.fill(buf_c);
  EXPECT_NE(buf_a, buf_c);

  HmacDrbg d(43, "test");
  std::array<std::uint8_t, 64> buf_d{};
  d.fill(buf_d);
  EXPECT_NE(buf_a, buf_d);
}

TEST(HmacDrbg, StreamContinuityAndReseed) {
  HmacDrbg a(7, "x");
  std::array<std::uint8_t, 32> first{};
  std::array<std::uint8_t, 32> second{};
  a.fill(first);
  a.fill(second);
  EXPECT_NE(first, second);

  HmacDrbg b(7, "x");
  std::array<std::uint8_t, 32> again{};
  b.fill(again);
  EXPECT_EQ(first, again);
  const std::array<std::uint8_t, 4> extra{1, 2, 3, 4};
  b.reseed(extra);
  b.fill(again);
  EXPECT_NE(second, again);
}

TEST(HmacDrbg, KnownAnswerPinsTheStream) {
  // Bytes recorded from the generator before it kept HMAC midstates: the
  // first 96 bytes under (7, "kat"), then a 160-bit draw after a reseed.
  HmacDrbg drbg(7, "kat");
  std::array<std::uint8_t, 96> out{};
  drbg.fill(out);
  EXPECT_EQ(hex(out),
            "1a29e66962989d889f931a0b3d1aa4a4334a3f1de607b09d53a9c369c5ec58c0"
            "c2db476a428c4601ea499ed03b1c39c150447d8ca6a4e129a0031bebed549edd"
            "34e3b0078b97b2afd2096e6ff973ca8bfa08fb3aed172d3ae372ba3620e9115d");
  const std::string_view material = "reseed-material";
  drbg.reseed(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(material.data()), material.size()));
  EXPECT_EQ(mpint::random_bits(drbg, 160).to_hex(), "f60b527810db1f6bf8f2b1dd32dbb261c55f7267");
}

TEST(HmacDrbg, ActsAsRngForBigInts) {
  HmacDrbg drbg(99, "bigint");
  const auto v = mpint::random_bits(drbg, 256);
  EXPECT_EQ(v.bit_length(), 256U);
  // Different draws differ.
  EXPECT_NE(mpint::random_bits(drbg, 256), v);
}

}  // namespace
}  // namespace idgka::hash
