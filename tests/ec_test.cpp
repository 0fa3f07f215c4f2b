// Elliptic-curve arithmetic tests: named-curve constants, group laws,
// scalar-multiplication properties, and the same laws on a generated toy
// curve.
#include "ec/curve.h"

#include <gtest/gtest.h>

#include "hash/hmac_drbg.h"
#include "mpint/prime.h"

namespace idgka::ec {
namespace {

using mpint::BigInt;

/// Jacobi symbol (a/n) for odd positive n; returns -1, 0 or 1.
int jacobi(const BigInt& a_in, const BigInt& n_in) {
  if (n_in.is_even() || n_in.negative()) {
    throw std::domain_error("jacobi: n must be odd and positive");
  }
  BigInt a = a_in.mod(n_in);
  BigInt n = n_in;
  int result = 1;
  while (!a.is_zero()) {
    while (a.is_even()) {
      a >>= 1;
      const std::uint64_t n_mod_8 = n.low_u64() & 7U;
      if (n_mod_8 == 3 || n_mod_8 == 5) result = -result;
    }
    std::swap(a, n);
    if ((a.low_u64() & 3U) == 3 && (n.low_u64() & 3U) == 3) result = -result;
    a = a.mod(n);
  }
  return n.is_one() ? result : 0;
}

/// Brute-force-counted curve with prime order over a `bits`-bit prime
/// (bits in [8, 28]): a second, independently generated curve for the
/// group-law checks.
Curve generate_toy_curve(mpint::Rng& rng, std::size_t bits) {
  if (bits < 8 || bits > 28) {
    throw std::invalid_argument("generate_toy_curve: bits must be in [8, 28]");
  }
  const BigInt p = mpint::generate_prime(rng, bits, 24);
  const mpint::ModContext fctx(p);
  const std::uint64_t pu = p.low_u64();
  while (true) {
    const std::uint64_t a = mpint::random_below(rng, p).low_u64();
    const std::uint64_t b = mpint::random_below(rng, p).low_u64();
    // Reject singular curves: 4a^3 + 27b^2 == 0 mod p.
    const unsigned __int128 disc =
        (static_cast<unsigned __int128>(4) * a % pu * a % pu * a +
         static_cast<unsigned __int128>(27) * b % pu * b) % pu;
    if (disc == 0) continue;

    // Count points directly: infinity + (2 per quadratic-residue RHS,
    // 1 per zero RHS). Equivalent to #E = p + 1 + sum_x chi(x^3+ax+b).
    std::uint64_t count = 1;
    std::uint64_t first_x = 0;
    bool have_point = false;
    std::uint64_t first_y = 0;
    for (std::uint64_t x = 0; x < pu; ++x) {
      const unsigned __int128 rhs128 =
          ((static_cast<unsigned __int128>(x) * x % pu * x) +
           (static_cast<unsigned __int128>(a) * x) + b) % pu;
      const std::uint64_t rhs = static_cast<std::uint64_t>(rhs128);
      if (rhs == 0) {
        ++count;  // one point with y == 0
        continue;
      }
      const int chi = jacobi(BigInt{rhs}, p);
      if (chi == 1) {
        count += 2;
        if (!have_point) {
          BigInt root;
          // p was chosen freely; only use sqrt when p % 4 == 3, otherwise
          // search y directly (p is tiny).
          if ((pu & 3U) == 3U && mpint::sqrt_mod_p3(fctx, BigInt{rhs}, root)) {
            first_x = x;
            first_y = root.low_u64();
            have_point = true;
          } else if ((pu & 3U) != 3U) {
            for (std::uint64_t y = 1; y < pu; ++y) {
              if (static_cast<unsigned __int128>(y) * y % pu == rhs) {
                first_x = x;
                first_y = y;
                have_point = true;
                break;
              }
            }
          }
        }
      }
    }
    const BigInt order{count};
    if (!have_point) continue;
    if (!mpint::is_probable_prime(order, rng, 24)) continue;

    const Point g{BigInt{first_x}, BigInt{first_y}, false};
    Curve curve("toy" + std::to_string(bits), p, BigInt{a}, BigInt{b}, g, order, BigInt{1});
    // Sanity: n*G == O.
    if (!curve.mul(order, g).infinity) continue;
    return curve;
  }
}

TEST(NamedCurves, Secp160r1GeneratorOnCurveAndOrder) {
  const Curve& c = secp160r1();
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  EXPECT_EQ(c.p().bit_length(), 160U);
  EXPECT_EQ(c.order().bit_length(), 161U);
  EXPECT_TRUE(mpint::is_probable_prime(c.p(), *std::make_unique<hash::HmacDrbg>(1, "pr")));
}

TEST(NamedCurves, P256GeneratorOnCurveAndOrder) {
  const Curve& c = p256();
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  EXPECT_EQ(c.p().bit_length(), 256U);
}

TEST(NamedCurves, P256KnownScalarMultiple) {
  // 2G for P-256 (public test vector).
  const Curve& c = p256();
  const Point two_g = c.mul(BigInt{2}, c.generator());
  EXPECT_EQ(two_g.x.to_hex(), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.to_hex(), "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(GroupLaw, IdentityAndInverse) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  const Point inf = Point::at_infinity();
  EXPECT_EQ(c.add(g, inf), g);
  EXPECT_EQ(c.add(inf, g), g);
  EXPECT_TRUE(c.add(g, c.neg(g)).infinity);
  EXPECT_TRUE(c.is_on_curve(c.neg(g)));
}

TEST(GroupLaw, AddDblConsistency) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  const Point g2 = c.add(g, g);
  EXPECT_EQ(c.mul(BigInt{2}, g), g2);
  const Point g3a = c.add(g2, g);
  const Point g3b = c.add(g, g2);
  EXPECT_EQ(g3a, g3b);
  EXPECT_EQ(c.mul(BigInt{3}, g), g3a);
  EXPECT_TRUE(c.is_on_curve(g3a));
}

TEST(GroupLaw, Associativity) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(10, "assoc");
  const Point a = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point b = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point d = c.mul(mpint::random_below(rng, c.order()), c.generator());
  EXPECT_EQ(c.add(c.add(a, b), d), c.add(a, c.add(b, d)));
}

class ScalarMulProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScalarMulProperty, DistributesOverScalarAddition) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(static_cast<std::uint64_t>(GetParam()), "smul");
  const BigInt k1 = mpint::random_below(rng, c.order());
  const BigInt k2 = mpint::random_below(rng, c.order());
  const Point lhs = c.mul((k1 + k2).mod(c.order()), c.generator());
  const Point rhs = c.add(c.mul(k1, c.generator()), c.mul(k2, c.generator()));
  EXPECT_EQ(lhs, rhs);
  EXPECT_TRUE(c.is_on_curve(lhs));
}

TEST_P(ScalarMulProperty, MulAddMatchesSeparate) {
  const Curve& c = secp160r1();
  hash::HmacDrbg rng(static_cast<std::uint64_t>(GetParam()) + 100, "muladd");
  const BigInt k1 = mpint::random_below(rng, c.order());
  const BigInt k2 = mpint::random_below(rng, c.order());
  const Point q = c.mul(mpint::random_below(rng, c.order()), c.generator());
  const Point lhs = c.mul_add(k1, k2, q);
  const Point rhs = c.add(c.mul(k1, c.generator()), c.mul(k2, q));
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarMulProperty, ::testing::Range(1, 9));

TEST(ScalarMul, EdgeScalars) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  EXPECT_TRUE(c.mul(BigInt{}, g).infinity);
  EXPECT_EQ(c.mul(BigInt{1}, g), g);
  EXPECT_EQ(c.mul(c.order() + BigInt{1}, g), g);  // reduction mod n
  EXPECT_EQ(c.mul(BigInt{-1}, g), c.neg(g));
  EXPECT_EQ(c.mul(c.order() - BigInt{1}, g), c.neg(g));
}

TEST(ScalarMul, RawDoesNotReduce) {
  const Curve& c = secp160r1();
  const Point g = c.generator();
  // mul_raw(n + 1) should equal G as well, but computed without reduction.
  EXPECT_EQ(c.mul_raw(c.order() + BigInt{1}, g), g);
  EXPECT_TRUE(c.mul_raw(c.order(), g).infinity);
}

TEST(Curve, RejectsBogusGenerator) {
  const Curve& c = secp160r1();
  EXPECT_THROW(Curve("bad", c.p(), c.a(), c.b(),
                     Point{BigInt{1}, BigInt{2}, false}, c.order(), BigInt{1}),
               std::invalid_argument);
}

TEST(Curve, OnCurveRejectsOffCurvePoints) {
  const Curve& c = secp160r1();
  Point bogus = c.generator();
  bogus.x = (bogus.x + BigInt{1}).mod(c.p());
  EXPECT_FALSE(c.is_on_curve(bogus));
}

TEST(ToyCurve, GeneratedCurveIsSound) {
  hash::HmacDrbg rng(77, "toy");
  const Curve c = generate_toy_curve(rng, 16);
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(c.order(), c.generator()).infinity);
  // Hasse bound: |#E - (p+1)| <= 2*sqrt(p).
  const BigInt p1 = c.p() + BigInt{1};
  const BigInt diff = (c.order() > p1 ? c.order() - p1 : p1 - c.order());
  EXPECT_LE(diff * diff, BigInt{4} * c.p());
  // Group law holds on the toy curve too.
  const Point g2 = c.add(c.generator(), c.generator());
  EXPECT_EQ(c.mul(BigInt{2}, c.generator()), g2);
  EXPECT_TRUE(c.is_on_curve(g2));
}

TEST(ToyCurve, RejectsBadSizes) {
  hash::HmacDrbg rng(78, "toy2");
  EXPECT_THROW(generate_toy_curve(rng, 4), std::invalid_argument);
  EXPECT_THROW(generate_toy_curve(rng, 40), std::invalid_argument);
}

TEST(ToyCurve, JacobiSymbol) {
  // (a/7): QRs mod 7 are {1,2,4}.
  EXPECT_EQ(jacobi(BigInt{1}, BigInt{7}), 1);
  EXPECT_EQ(jacobi(BigInt{2}, BigInt{7}), 1);
  EXPECT_EQ(jacobi(BigInt{3}, BigInt{7}), -1);
  EXPECT_EQ(jacobi(BigInt{4}, BigInt{7}), 1);
  EXPECT_EQ(jacobi(BigInt{5}, BigInt{7}), -1);
  EXPECT_EQ(jacobi(BigInt{6}, BigInt{7}), -1);
  EXPECT_EQ(jacobi(BigInt{7}, BigInt{7}), 0);
  EXPECT_THROW((void)jacobi(BigInt{3}, BigInt{8}), std::domain_error);
}

}  // namespace
}  // namespace idgka::ec
