// Tests for prime/parameter generation and the random helpers. Montgomery
// arithmetic itself is covered by mpint_modctx_test.
#include <gtest/gtest.h>

#include "mpint/mod_context.h"
#include "mpint/prime.h"
#include "mpint/random.h"

namespace idgka::mpint {
namespace {

TEST(Primality, KnownSmallPrimes) {
  XoshiroRng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 997ULL, 7919ULL, 104729ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt{p}, rng)) << p;
  }
  for (std::uint64_t c : {1ULL, 4ULL, 100ULL, 997ULL * 991ULL, 104729ULL * 7919ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt{c}, rng)) << c;
  }
}

TEST(Primality, KnownLargePrimeAndComposite) {
  XoshiroRng rng(2);
  // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite (known factor 59649589127497217).
  const BigInt mersenne = (BigInt{1} << 127) - BigInt{1};
  EXPECT_TRUE(is_probable_prime(mersenne, rng));
  const BigInt fermat_like = (BigInt{1} << 128) + BigInt{1};
  EXPECT_FALSE(is_probable_prime(fermat_like, rng));
}

TEST(Primality, CarmichaelNumbersRejected) {
  XoshiroRng rng(3);
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt{c}, rng)) << c;
  }
}

TEST(PrimeGen, GeneratesExactBitLength) {
  XoshiroRng rng(4);
  for (std::size_t bits : {32U, 64U, 128U, 256U}) {
    const BigInt p = generate_prime(rng, bits, 16);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng, 16));
  }
}

TEST(PrimeGen, SchnorrGroupStructure) {
  XoshiroRng rng(5);
  const SchnorrGroup grp = generate_schnorr_group(rng, 256, 128, 12);
  EXPECT_EQ(grp.p.bit_length(), 256U);
  EXPECT_EQ(grp.q.bit_length(), 128U);
  EXPECT_TRUE(is_probable_prime(grp.p, rng, 12));
  EXPECT_TRUE(is_probable_prime(grp.q, rng, 12));
  EXPECT_EQ((grp.p - BigInt{1}).mod(grp.q), BigInt{});
  // g has order exactly q.
  EXPECT_EQ(ModContext(grp.p).exp(grp.g, grp.q), BigInt{1});
  EXPECT_NE(grp.g, BigInt{1});
}

TEST(PrimeGen, GqModulusInverseKeys) {
  XoshiroRng rng(6);
  const GqModulus key = generate_gq_modulus(rng, 256, BigInt{65537}, 12);
  EXPECT_EQ(key.n.bit_length(), 256U);
  EXPECT_EQ(key.p_prime * key.q_prime, key.n);
  const BigInt phi = (key.p_prime - BigInt{1}) * (key.q_prime - BigInt{1});
  EXPECT_EQ(mod_mul(key.e, key.d, phi), BigInt{1});
  // RSA round trip: (x^e)^d == x mod n.
  const BigInt x = random_below(rng, key.n);
  const ModContext ctx(key.n);
  EXPECT_EQ(ctx.exp(ctx.exp(x, key.e), key.d), x);
}

TEST(PrimeGen, SupersingularParams) {
  XoshiroRng rng(7);
  const SupersingularParams params = generate_supersingular_params(rng, 256, 120, 12);
  EXPECT_EQ(params.p.bit_length(), 256U);
  EXPECT_TRUE(is_probable_prime(params.p, rng, 12));
  EXPECT_TRUE(is_probable_prime(params.q, rng, 12));
  EXPECT_EQ(params.p.low_u64() & 3U, 3U);
  EXPECT_EQ(params.cofactor * params.q, params.p + BigInt{1});
}

TEST(RandomHelpers, RangesRespected) {
  XoshiroRng rng(8);
  const BigInt lo{100};
  const BigInt hi{200};
  for (int i = 0; i < 200; ++i) {
    const BigInt v = random_range(rng, lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LT(v, hi);
  }
  for (int i = 0; i < 50; ++i) {
    const BigInt v = random_bits(rng, 65);
    EXPECT_EQ(v.bit_length(), 65U);
  }
  EXPECT_THROW(random_below(rng, BigInt{}), std::invalid_argument);
  EXPECT_THROW(random_range(rng, hi, lo), std::invalid_argument);
}

TEST(RandomHelpers, UnitIsCoprime) {
  XoshiroRng rng(9);
  const BigInt n{3 * 5 * 7 * 11 * 13};
  for (int i = 0; i < 50; ++i) {
    const BigInt u = random_unit(rng, n);
    EXPECT_TRUE(gcd(u, n).is_one());
  }
}

TEST(RandomHelpers, DeterministicUnderSeed) {
  XoshiroRng a(12345);
  XoshiroRng b(12345);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  XoshiroRng c(54321);
  bool any_diff = false;
  XoshiroRng a2(12345);
  for (int i = 0; i < 10; ++i) any_diff |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace idgka::mpint
