// Unit and property tests for the arbitrary-precision integer core.
#include "mpint/bigint.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "mpint/random.h"

namespace idgka::mpint {
namespace {

TEST(BigIntBasics, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(z.bit_length(), 0U);
}

TEST(BigIntBasics, SmallConstruction) {
  EXPECT_EQ(BigInt{42}.to_dec(), "42");
  EXPECT_EQ(BigInt{-7}.to_dec(), "-7");
  EXPECT_EQ(BigInt{0xFFFFFFFFFFFFFFFFULL}.to_hex(), "ffffffffffffffff");
}

TEST(BigIntBasics, HexRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "deadbeef",
                         "ffffffffffffffff",
                         "10000000000000000",
                         "123456789abcdef0123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::from_hex(c).to_hex(), c) << c;
  }
  EXPECT_EQ(BigInt::from_hex("-ff").to_dec(), "-255");
  EXPECT_EQ(BigInt::from_hex("0xAB").to_hex(), "ab");
}

TEST(BigIntBasics, DecRoundTrip) {
  const char* cases[] = {"0", "1", "9", "10", "18446744073709551615", "18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "99999999999999999999999999999999999999999999999999"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::from_dec(c).to_dec(), c) << c;
  }
  EXPECT_EQ(BigInt::from_dec("-123").to_dec(), "-123");
}

TEST(BigIntBasics, FromHexRejectsGarbage) {
  EXPECT_THROW(BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec(""), std::invalid_argument);
}

TEST(BigIntBasics, BytesRoundTrip) {
  const BigInt v = BigInt::from_hex("0102030405060708090a0b0c0d0e0f10");
  const auto bytes = v.to_bytes_be();
  EXPECT_EQ(bytes.size(), 16U);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[15], 0x10);
  EXPECT_EQ(BigInt::from_bytes_be(bytes), v);

  // Padding
  const auto padded = BigInt{1}.to_bytes_be(8);
  EXPECT_EQ(padded.size(), 8U);
  EXPECT_EQ(padded[7], 1);
  EXPECT_EQ(padded[0], 0);
}

TEST(BigIntBasics, NegativeZeroNormalizes) {
  const BigInt a = BigInt{5} - BigInt{5};
  EXPECT_TRUE(a.is_zero());
  EXPECT_FALSE(a.negative());
  EXPECT_EQ(-BigInt{}, BigInt{});
}

TEST(BigIntArith, SignedAddSub) {
  const BigInt a = BigInt::from_dec("123456789012345678901234567890");
  const BigInt b = BigInt::from_dec("987654321098765432109876543210");
  EXPECT_EQ((a + b).to_dec(), "1111111110111111111011111111100");
  EXPECT_EQ((b - a).to_dec(), "864197532086419753208641975320");
  EXPECT_EQ((a - b).to_dec(), "-864197532086419753208641975320");
  EXPECT_EQ(a + (-a), BigInt{});
  EXPECT_EQ((-a) + (-b), -(a + b));
}

TEST(BigIntArith, MultiplyCarryChains) {
  const BigInt max64{0xFFFFFFFFFFFFFFFFULL};
  EXPECT_EQ((max64 * max64).to_hex(), "fffffffffffffffe0000000000000001");
  EXPECT_EQ((BigInt::from_hex("ffffffff") * BigInt::from_hex("ffffffff")).to_hex(),
            "fffffffe00000001");
  EXPECT_EQ(BigInt{0} * max64, BigInt{});
}

TEST(BigIntArith, DivisionBasics) {
  EXPECT_EQ((BigInt{100} / BigInt{7}).to_dec(), "14");
  EXPECT_EQ((BigInt{100} % BigInt{7}).to_dec(), "2");
  // Truncated semantics: (-100)/7 == -14 rem -2.
  EXPECT_EQ((BigInt{-100} / BigInt{7}).to_dec(), "-14");
  EXPECT_EQ((BigInt{-100} % BigInt{7}).to_dec(), "-2");
  EXPECT_EQ((BigInt{100} / BigInt{-7}).to_dec(), "-14");
  EXPECT_EQ((BigInt{100} % BigInt{-7}).to_dec(), "2");
  EXPECT_THROW(BigInt{1} / BigInt{}, std::domain_error);
}

TEST(BigIntArith, EuclideanMod) {
  EXPECT_EQ(BigInt{-100}.mod(BigInt{7}).to_dec(), "5");
  EXPECT_EQ(BigInt{100}.mod(BigInt{7}).to_dec(), "2");
  EXPECT_EQ(BigInt{0}.mod(BigInt{7}), BigInt{});
}

TEST(BigIntArith, ShiftRoundTrip) {
  const BigInt v = BigInt::from_hex("123456789abcdef0fedcba9876543210");
  for (std::size_t s : {1U, 7U, 63U, 64U, 65U, 127U, 200U}) {
    EXPECT_EQ((v << s) >> s, v) << "shift " << s;
  }
  EXPECT_EQ(BigInt{1} << 64, BigInt::from_hex("10000000000000000"));
  EXPECT_EQ(BigInt::from_hex("ff") >> 4, BigInt::from_hex("f"));
  EXPECT_EQ(BigInt::from_hex("ff") >> 100, BigInt{});
}

TEST(BigIntArith, Comparisons) {
  EXPECT_LT(BigInt{-5}, BigInt{3});
  EXPECT_LT(BigInt{-5}, BigInt{-3});
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt::from_hex("ffffffffffffffff"));
  EXPECT_EQ(BigInt{7}, BigInt{7});
}

TEST(BigIntArith, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64U);
}

// ---------------------------------------------------------------------------
// Property tests: random algebraic identities exercising the Knuth division
// and Karatsuba paths at many operand sizes.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntPropertyTest, DivModReconstructsDividend) {
  XoshiroRng rng(GetParam());
  const std::size_t bits = 32 + GetParam() * 97 % 4096;
  for (int i = 0; i < 25; ++i) {
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, 1 + (GetParam() * 31 + static_cast<std::size_t>(i) * 131) % bits);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.negative());
  }
}

TEST_P(BigIntPropertyTest, MulCommutesAndDistributes) {
  XoshiroRng rng(GetParam() * 7919);
  const std::size_t bits = 16 + GetParam() * 211 % 3000;
  const BigInt a = random_bits(rng, bits);
  const BigInt b = random_bits(rng, bits / 2 + 1);
  const BigInt c = random_bits(rng, bits / 3 + 1);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ((a + b) * (a - b), a * a - b * b);
}

TEST_P(BigIntPropertyTest, KaratsubaMatchesIdentity) {
  // (a+b)^2 == a^2 + 2ab + b^2 on large operands that cross the Karatsuba
  // threshold in the squaring but not the cross terms.
  XoshiroRng rng(GetParam() * 104729);
  const BigInt a = random_bits(rng, 2500 + GetParam() * 37 % 1500);
  const BigInt b = random_bits(rng, 900 + GetParam() * 53 % 700);
  EXPECT_EQ((a + b) * (a + b), a * a + BigInt{2} * a * b + b * b);
}

TEST_P(BigIntPropertyTest, StringRoundTripsRandom) {
  XoshiroRng rng(GetParam() * 31337);
  const BigInt a = random_bits(rng, 8 + GetParam() * 67 % 2048);
  EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  EXPECT_EQ(BigInt::from_dec(a.to_dec()), a);
  EXPECT_EQ(BigInt::from_bytes_be(a.to_bytes_be()), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest, ::testing::Range<std::size_t>(1, 33));

// ---------------------------------------------------------------------------
// Number theory helpers
// ---------------------------------------------------------------------------

TEST(NumberTheory, GcdKnownValues) {
  EXPECT_EQ(gcd(BigInt{12}, BigInt{18}).to_dec(), "6");
  EXPECT_EQ(gcd(BigInt{17}, BigInt{13}).to_dec(), "1");
  EXPECT_EQ(gcd(BigInt{0}, BigInt{5}).to_dec(), "5");
  EXPECT_EQ(gcd(BigInt{-12}, BigInt{18}).to_dec(), "6");
}

TEST(NumberTheory, ModInverse) {
  EXPECT_EQ(mod_inverse(BigInt{3}, BigInt{7}).to_dec(), "5");
  EXPECT_EQ(mod_inverse(BigInt{10}, BigInt{17}).to_dec(), "12");
  EXPECT_THROW(mod_inverse(BigInt{6}, BigInt{9}), std::domain_error);
  XoshiroRng rng(7);
  const BigInt m = BigInt::from_dec("1000000007");
  for (int i = 0; i < 30; ++i) {
    const BigInt a = random_range(rng, BigInt{1}, m);
    EXPECT_EQ(mod_mul(a, mod_inverse(a, m), m), BigInt{1});
  }
}

// ----------------------------------------------------- binary GCD core ---

// Reference extended Euclid over BigInt division: returns gcd(|a|, |b|) and
// sets x with a*x == gcd (mod b) for a, b >= 0.
BigInt ref_egcd(BigInt a, BigInt b, BigInt& x) {
  BigInt x0{1};
  BigInt x1{0};
  while (!b.is_zero()) {
    const BigInt q = a / b;
    a = std::exchange(b, a - q * b);
    x0 = std::exchange(x1, x0 - q * x1);
  }
  x = std::move(x0);
  return a;
}

BigInt ref_gcd(const BigInt& a, const BigInt& b) {
  BigInt x;
  return ref_egcd(a.abs(), b.abs(), x);
}

// Checks gcd both ways round and mod_inverse (value or throw) against the
// reference for one (a, m), m > 0.
void expect_matches_reference(const BigInt& a, const BigInt& m) {
  const BigInt g = ref_gcd(a, m);
  EXPECT_EQ(gcd(a, m), g) << "a=" << a.to_hex() << " m=" << m.to_hex();
  EXPECT_EQ(gcd(m, a), g) << "a=" << a.to_hex() << " m=" << m.to_hex();
  if (g.is_one()) {
    BigInt x;
    ref_egcd(a.mod(m), m, x);
    EXPECT_EQ(mod_inverse(a, m), x.mod(m)) << "a=" << a.to_hex() << " m=" << m.to_hex();
  } else {
    EXPECT_THROW((void)mod_inverse(a, m), std::domain_error)
        << "a=" << a.to_hex() << " m=" << m.to_hex();
  }
}

// Odd moduli at limb count k: 3, a random one with its top bit set,
// 2^(64k) - 1, 2^(64k-1) + 1 (both divisible by 3) and a product of two
// half-width odd factors (a composite with a large known factor).
std::vector<std::pair<BigInt, BigInt>> gcd_moduli(std::size_t k, Rng& rng) {
  const std::size_t bits = 64 * k;
  BigInt random = random_bits(rng, bits);
  if (random.is_even()) random += BigInt{1};
  BigInt factor = random_bits(rng, bits / 2);
  if (factor.is_even()) factor += BigInt{1};
  BigInt cofactor = random_bits(rng, bits - bits / 2);
  if (cofactor.is_even()) cofactor += BigInt{1};
  return {{BigInt{3}, BigInt{3}},
          {random, BigInt{1}},
          {(BigInt{1} << bits) - BigInt{1}, BigInt{3}},
          {(BigInt{1} << (bits - 1)) + BigInt{1}, BigInt{3}},
          {factor * cofactor, factor}};
}

TEST(BinaryGcd, MatchesReferenceEuclidAtEveryWidth) {
  XoshiroRng rng(2323);
  for (std::size_t k = 1; k <= 33; ++k) {
    for (const auto& [m, factor] : gcd_moduli(k, rng)) {
      const BigInt r = random_below(rng, m);
      const std::vector<BigInt> operands = {
          BigInt{},
          BigInt{1},
          m - BigInt{1},
          r,
          m,
          m + r,                                    // a >= m
          random_bits(rng, 64 * k + 70),            // wider than m
          -r,                                       // negative
          -(m + BigInt{1}),
          factor * random_bits(rng, 1 + 64 * k / 2),  // shares a factor with m
      };
      for (const BigInt& a : operands) expect_matches_reference(a, m);
    }
  }
}

TEST(BinaryGcd, CrossesTheExactApproximationThreshold) {
  // Pairs whose common length sits just below, at and above 64 bits, where
  // the core switches from top-33-bit approximations to exact values.
  XoshiroRng rng(2324);
  for (std::size_t mbits = 58; mbits <= 72; ++mbits) {
    for (int rep = 0; rep < 20; ++rep) {
      BigInt m = random_bits(rng, mbits);
      if (m.is_even()) m += BigInt{1};
      const std::size_t abits = 58 + static_cast<std::size_t>(rng.next_u64() % 15);
      expect_matches_reference(random_bits(rng, abits), m);
    }
  }
  expect_matches_reference((BigInt{1} << 64) - BigInt{1}, (BigInt{1} << 64) + BigInt{1});
  expect_matches_reference((BigInt{1} << 64) + BigInt{3}, (BigInt{1} << 63) + BigInt{1});
}

TEST(BinaryGcd, EvenModulusInverse) {
  XoshiroRng rng(2325);
  for (std::size_t k = 1; k <= 33; ++k) {
    for (int rep = 0; rep < 4; ++rep) {
      BigInt m = random_bits(rng, 64 * k - static_cast<std::size_t>(rng.next_u64() % 7));
      if (m.is_odd()) m += BigInt{1};
      BigInt a = random_below(rng, m);
      if (rep % 2 == 0 && a.is_even()) a += BigInt{1};  // mostly invertible
      expect_matches_reference(a, m);
    }
  }
  expect_matches_reference(BigInt{1}, BigInt{2});
  expect_matches_reference(BigInt{3}, BigInt{2});
  expect_matches_reference(BigInt{-5}, BigInt{8});
  expect_matches_reference(BigInt{4}, BigInt{8});
  // The even modulus the library actually inverts under: e^{-1} mod phi.
  const GqModulus key = generate_gq_modulus(rng, 512, BigInt{65537}, 16);
  const BigInt phi = (key.p_prime - BigInt{1}) * (key.q_prime - BigInt{1});
  BigInt x;
  ASSERT_TRUE(ref_egcd(key.e, phi, x).is_one());
  EXPECT_EQ(key.d, x.mod(phi));
  EXPECT_EQ(mod_inverse(key.e, phi), key.d);
  EXPECT_EQ(mod_mul(key.e, key.d, phi), BigInt{1});
}

TEST(BinaryGcd, GcdOfEvenZeroAndNegativeOperands) {
  EXPECT_EQ(gcd(BigInt{}, BigInt{}), BigInt{});
  EXPECT_EQ(gcd(BigInt{}, BigInt{-5}), BigInt{5});
  EXPECT_EQ(gcd(BigInt{-8}, BigInt{}), BigInt{8});
  EXPECT_EQ(gcd(BigInt{-12}, BigInt{-18}), BigInt{6});
  EXPECT_EQ(gcd(BigInt{48}, BigInt{-64}), BigInt{16});
  EXPECT_EQ(gcd(BigInt{3} << 70, BigInt{9} << 65), BigInt{3} << 65);
  EXPECT_EQ(gcd(BigInt{1} << 200, BigInt{1} << 130), BigInt{1} << 130);
  XoshiroRng rng(2326);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t shift_a = static_cast<std::size_t>(rng.next_u64() % 140);
    const std::size_t shift_b = static_cast<std::size_t>(rng.next_u64() % 140);
    const BigInt a = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % 400)) << shift_a;
    const BigInt b = random_bits(rng, 1 + static_cast<std::size_t>(rng.next_u64() % 400)) << shift_b;
    const BigInt g = ref_gcd(a, b);
    EXPECT_EQ(gcd(a, b), g);
    EXPECT_EQ(gcd(-a, b), g);
    EXPECT_EQ(gcd(b, -a), g);
  }
}

TEST(NumberTheory, ModExpKnownValues) {
  EXPECT_EQ(ModContext(BigInt{1001}).exp(BigInt{2}, BigInt{10}).to_dec(), "23");
  const ModContext ctx7(BigInt{7});
  EXPECT_EQ(ctx7.exp(BigInt{3}, BigInt{0}), BigInt{1});
  EXPECT_EQ(ctx7.exp(BigInt{0}, BigInt{5}), BigInt{});
  // Fermat: a^(p-1) = 1 mod p
  const BigInt p = BigInt::from_dec("1000000007");
  EXPECT_EQ(ModContext(p).exp(BigInt{123456}, p - BigInt{1}), BigInt{1});
}

TEST(NumberTheory, ModExpNegativeExponent) {
  const BigInt p = BigInt::from_dec("1000000007");
  const ModContext ctx(p);
  const BigInt a{12345};
  EXPECT_EQ(mod_mul(ctx.exp(a, BigInt{-3}), ctx.exp(a, BigInt{3}), p), BigInt{1});
}

TEST(NumberTheory, SqrtModP3) {
  const BigInt p{103};  // 103 % 4 == 3
  const ModContext ctx(p);
  int qr_count = 0;
  for (std::uint64_t a = 1; a < 103; ++a) {
    BigInt root;
    if (sqrt_mod_p3(ctx, BigInt{a}, root)) {
      ++qr_count;
      EXPECT_EQ(mod_mul(root, root, p), BigInt{a});
    }
  }
  EXPECT_EQ(qr_count, 51);  // (p-1)/2 quadratic residues
}

}  // namespace
}  // namespace idgka::mpint
