// Canonical wire codec tests: byte-exact round trips over a large seeded
// random message corpus, a fixed golden vector locking the format, strict
// rejection of a malformed-frame corpus (the seed corpus for fuzzing), and
// the shared-frame semantics the transport relies on.
#include "wire/codec.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>


namespace idgka::wire {
namespace {

using mpint::BigInt;
using net::Message;

std::vector<std::uint8_t> varint(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

std::vector<std::uint8_t> frame_bytes(const Message& msg) {
  const Frame f = encode(msg);
  return std::vector<std::uint8_t>(f.bytes().begin(), f.bytes().end());
}

Message small_msg() {
  Message m;
  m.sender = 7;
  m.type = "t";
  m.payload.put_u32("id", 7);
  return m;
}

Message rich_msg() {
  Message m;
  m.sender = 1'000'000;
  m.recipient = 42;
  m.type = "join-r2";
  m.declared_bits = 2080;
  m.payload.put_int("z", BigInt::from_hex("ffeeddccbbaa99887766554433221100"));
  m.payload.put_int("zero", BigInt{0});
  m.payload.put_blob("cert", {0xDE, 0xAD, 0xBE, 0xEF});
  m.payload.put_blob("empty", {});
  m.payload.put_u32("id", 0xA1B2C3D4);
  return m;
}

// ------------------------------------------------------------ round trips ---

TEST(WireCodec, GoldenVectorLocksTheFormat) {
  // sender 7, no recipient, declared 0, type "t", one u32 field id=7.
  const std::vector<std::uint8_t> expected = {
      kMagic, kVersion, 0x00,              // header
      0x07,                                // sender
      0x00,                                // declared_bits
      0x01, 't',                           // type
      0x01,                                // field count
      kKindU32, 0x02, 'i', 'd',            // field tag + name
      0x00, 0x00, 0x00, 0x07,              // value, big-endian
  };
  EXPECT_EQ(frame_bytes(small_msg()), expected);
  EXPECT_EQ(decode(expected), small_msg());
}

TEST(WireCodec, RichMessageRoundTripsBitExact) {
  const Message m = rich_msg();
  const Frame f = encode(m);
  const Message back = decode(f);
  EXPECT_TRUE(back == m);
  EXPECT_EQ(frame_bytes(back), frame_bytes(m));  // canonical: unique encoding
  EXPECT_EQ(f.accounted_bits(), m.accounted_bits());
  EXPECT_EQ(f.sender(), m.sender);
  EXPECT_NO_THROW(assert_roundtrip(m, f));
}

TEST(WireCodec, PropertyThousandSeededRandomMessagesRoundTrip) {
  std::mt19937_64 rng(0xC0DECULL);
  const auto uniform = [&](std::uint64_t bound) { return rng() % bound; };
  for (int iter = 0; iter < 1000; ++iter) {
    Message m;
    m.sender = static_cast<std::uint32_t>(rng());
    if (uniform(2) == 0) m.recipient = static_cast<std::uint32_t>(rng());
    m.type.assign(uniform(24), 'a');
    for (auto& c : m.type) c = static_cast<char>('a' + uniform(26));
    if (uniform(2) == 0) m.declared_bits = uniform(1ULL << 20);

    const auto name = [&](const char* prefix, int i) {
      std::string n = std::string(prefix) + std::to_string(i);
      for (std::uint64_t j = uniform(8); j > 0; --j) {
        n.push_back(static_cast<char>('a' + uniform(26)));
      }
      return n;
    };
    for (int i = static_cast<int>(uniform(6)); i > 0; --i) {
      // Bias toward crypto-sized values; include zero and tiny ones.
      const std::size_t bytes = uniform(3) == 0 ? uniform(4) : uniform(256);
      std::vector<std::uint8_t> mag(bytes);
      for (auto& b : mag) b = static_cast<std::uint8_t>(rng());
      if (!mag.empty()) mag[0] |= 1;  // minimal bytes: nonzero leading byte
      m.payload.put_int(name("i", i), BigInt::from_bytes_be(mag));
    }
    for (int i = static_cast<int>(uniform(4)); i > 0; --i) {
      std::vector<std::uint8_t> blob(uniform(300));
      for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
      m.payload.put_blob(name("b", i), std::move(blob));
    }
    for (int i = static_cast<int>(uniform(4)); i > 0; --i) {
      m.payload.put_u32(name("u", i), static_cast<std::uint32_t>(rng()));
    }

    const Frame f = encode(m);
    const Message back = decode(f);
    ASSERT_TRUE(back == m) << "iter " << iter;
    ASSERT_EQ(frame_bytes(back), frame_bytes(m)) << "iter " << iter;
    ASSERT_NO_THROW(assert_roundtrip(m, f)) << "iter " << iter;
  }
}

TEST(WireCodec, PeekParsesHeaderWithoutPayload) {
  const Message m = rich_msg();
  const Header h = peek(encode(m).bytes());
  EXPECT_EQ(h.sender, m.sender);
  EXPECT_EQ(h.recipient, m.recipient);
  EXPECT_EQ(h.type, m.type);
  EXPECT_EQ(h.declared_bits, m.declared_bits);
  EXPECT_EQ(h.field_count, 5U);
  EXPECT_THROW((void)peek(std::span<const std::uint8_t>()), DecodeError);
}

// ------------------------------------------------------- shared semantics ---

TEST(WireFrame, CopiesShareOneBuffer) {
  const Frame f = encode(rich_msg());
  EXPECT_EQ(f.use_count(), 1L);
  const Frame copy = f;
  EXPECT_EQ(copy.data(), f.data());
  EXPECT_EQ(f.use_count(), 2L);
  EXPECT_EQ(copy.size_bits(), f.size() * 8);
  const Frame empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0L);
}

TEST(WireCodec, AssertRoundtripCatchesAccountingDrift) {
  const Message m = small_msg();
  const Frame f = encode(m);
  // A layer that rewrites accounting must be caught, not absorbed.
  const Frame drifted(std::vector<std::uint8_t>(f.bytes().begin(), f.bytes().end()),
                      f.accounted_bits() + 1, f.sender());
  EXPECT_THROW(assert_roundtrip(m, drifted), std::logic_error);
  Message other = m;
  other.payload.put_u32("extra", 1);
  EXPECT_THROW(assert_roundtrip(other, f), std::logic_error);
}

// ---------------------------------------------------------- encode errors ---

TEST(WireCodec, EncodeRejectsUnencodableMessages) {
  Message m = small_msg();
  m.payload.put_int("neg", BigInt{-5});
  EXPECT_THROW((void)encode(m), std::invalid_argument);

  Message empty_name = small_msg();
  empty_name.payload.put_int("", BigInt{1});
  EXPECT_THROW((void)encode(empty_name), std::invalid_argument);

  Message long_name = small_msg();
  long_name.payload.put_u32(std::string(256, 'n'), 1);
  EXPECT_THROW((void)encode(long_name), std::invalid_argument);

  Message long_type = small_msg();
  long_type.type = std::string(256, 't');
  EXPECT_THROW((void)encode(long_type), std::invalid_argument);

  Message huge_declared = small_msg();
  huge_declared.declared_bits = (1ULL << 48) + 1;
  EXPECT_THROW((void)encode(huge_declared), std::invalid_argument);

  // A duplicate name within a kind would encode into a frame every strict
  // receiver rejects; it must fail at the sender.
  Message dup = small_msg();
  dup.payload.put_int("z", BigInt{1});
  dup.payload.put_int("z", BigInt{2});
  EXPECT_THROW((void)encode(dup), std::invalid_argument);
}

// ------------------------------------------------------- malformed corpus ---

TEST(WireCorpus, TruncationAtEveryBoundaryThrows) {
  const std::vector<std::uint8_t> full = frame_bytes(rich_msg());
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)decode(std::span(full.data(), len)), DecodeError) << "len " << len;
  }
  EXPECT_NO_THROW((void)decode(full));
}

TEST(WireCorpus, HeaderCorruptionsThrow) {
  const std::vector<std::uint8_t> good = frame_bytes(small_msg());

  auto mutated = good;
  mutated[0] = 0x00;  // bad magic
  EXPECT_THROW((void)decode(mutated), DecodeError);

  mutated = good;
  mutated[1] = kVersion + 1;  // unsupported version
  EXPECT_THROW((void)decode(mutated), DecodeError);

  mutated = good;
  mutated[2] = 0x80;  // unknown flag bit
  EXPECT_THROW((void)decode(mutated), DecodeError);

  // Flags promise a recipient the frame does not carry: the varint reader
  // then walks into the type bytes and the strict structure check fails.
  mutated = good;
  mutated[2] = kFlagRecipient;
  EXPECT_THROW((void)decode(mutated), DecodeError);
}

TEST(WireCorpus, NonMinimalVarintThrows) {
  // sender 7 padded to two varint bytes (0x87 0x00).
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00, 0x87, 0x00, 0x00, 0x01, 't', 0x00};
  EXPECT_THROW((void)decode(bad), DecodeError);
}

TEST(WireCorpus, VarintOverflowThrows) {
  // 10 continuation bytes encode > 64 bits in the sender field.
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00};
  for (int i = 0; i < 9; ++i) bad.push_back(0xFF);
  bad.push_back(0x7F);
  EXPECT_THROW((void)decode(bad), DecodeError);
}

TEST(WireCorpus, SenderBeyond32BitsThrows) {
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00};
  const auto sender = varint(1ULL << 32);
  bad.insert(bad.end(), sender.begin(), sender.end());
  bad.insert(bad.end(), {0x00, 0x01, 't', 0x00});
  EXPECT_THROW((void)decode(bad), DecodeError);
}

TEST(WireCorpus, LengthOverflowThrows) {
  // Blob length claims far more bytes than the frame holds.
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x01,
                                   kKindBlob, 0x01, 'b'};
  const auto len = varint(1ULL << 40);
  bad.insert(bad.end(), len.begin(), len.end());
  EXPECT_THROW((void)decode(bad), DecodeError);
}

TEST(WireCorpus, TrailingGarbageThrows) {
  auto bad = frame_bytes(rich_msg());
  bad.push_back(0x00);
  EXPECT_THROW((void)decode(bad), DecodeError);
}

TEST(WireCorpus, DuplicateTagThrows) {
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x02,
                                   kKindU32, 0x02, 'i', 'd', 0, 0, 0, 1,
                                   kKindU32, 0x02, 'i', 'd', 0, 0, 0, 2};
  EXPECT_THROW((void)decode(bad), DecodeError);
  // The same name under different kinds is NOT a duplicate.
  std::vector<std::uint8_t> ok = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x02,
                                  kKindInt, 0x02, 'i', 'd', 0x01, 0x09,
                                  kKindU32, 0x02, 'i', 'd', 0, 0, 0, 2};
  const Message m = decode(ok);
  EXPECT_EQ(m.payload.get_int("id"), BigInt{9});
  EXPECT_EQ(m.payload.get_u32("id"), 2U);
}

TEST(WireCorpus, KindOrderAndUnknownKindThrow) {
  // u32 before int violates the canonical kind order.
  std::vector<std::uint8_t> out_of_order = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't',
                                            0x02,
                                            kKindU32, 0x01, 'u', 0, 0, 0, 1,
                                            kKindInt, 0x01, 'i', 0x01, 0x09};
  EXPECT_THROW((void)decode(out_of_order), DecodeError);

  std::vector<std::uint8_t> unknown_kind = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't',
                                            0x01, 0x04, 0x01, 'x', 0x00};
  EXPECT_THROW((void)decode(unknown_kind), DecodeError);

  std::vector<std::uint8_t> empty_name = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't',
                                          0x01, kKindInt, 0x00, 0x00};
  EXPECT_THROW((void)decode(empty_name), DecodeError);
}

TEST(WireCorpus, NonMinimalIntegerThrows) {
  // Integer value 9 encoded with a leading zero byte.
  std::vector<std::uint8_t> bad = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x01,
                                   kKindInt, 0x01, 'i', 0x02, 0x00, 0x09};
  EXPECT_THROW((void)decode(bad), DecodeError);
  // Zero is the empty magnitude, and that is the only valid zero.
  std::vector<std::uint8_t> zero_ok = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x01,
                                       kKindInt, 0x01, 'i', 0x00};
  EXPECT_TRUE(decode(zero_ok).payload.get_int("i").is_zero());
  std::vector<std::uint8_t> zero_bad = {kMagic, kVersion, 0x00, 0x01, 0x00, 0x01, 't', 0x01,
                                        kKindInt, 0x01, 'i', 0x01, 0x00};
  EXPECT_THROW((void)decode(zero_bad), DecodeError);
}

TEST(WireCorpus, RandomMutationsNeverCrashOrMisbehave) {
  // Fuzz seed corpus: any single mutation of a valid frame either still
  // decodes (the flip landed inside a value) or throws DecodeError —
  // nothing else, ever.
  const std::vector<std::uint8_t> good = frame_bytes(rich_msg());
  std::mt19937_64 rng(0xF0220ULL);
  for (int iter = 0; iter < 2000; ++iter) {
    auto bytes = good;
    switch (rng() % 3) {
      case 0:  // single random byte rewrite
        bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
        break;
      case 1:  // random truncation
        bytes.resize(rng() % bytes.size());
        break;
      default:  // random extension
        for (std::uint64_t i = rng() % 16 + 1; i > 0; --i) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
    }
    try {
      const Message m = decode(bytes);
      // A surviving decode must itself round-trip canonically.
      ASSERT_NO_THROW((void)encode(m)) << "iter " << iter;
    } catch (const DecodeError&) {
      // rejected cleanly
    }
  }
}

}  // namespace
}  // namespace idgka::wire
