// F_p^2 arithmetic, supersingular-group and Tate-pairing tests.
// Bilinearity + non-degeneracy are the load-bearing properties for the SOK
// ID-based signature baseline.
#include "pairing/tate.h"

#include <gtest/gtest.h>

#include "hash/hmac_drbg.h"

namespace idgka::pairing {
namespace {

using mpint::BigInt;

class PairingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hash::HmacDrbg rng(4242, "pairing-params");
    // Small-but-real parameters keep the suite fast; all algebraic
    // properties are size-independent.
    params_ = new mpint::SupersingularParams(
        mpint::generate_supersingular_params(rng, 256, 120, 16));
    group_ = new SsGroup(*params_);
    tate_ = new TatePairing(*group_);
  }
  static void TearDownTestSuite() {
    delete tate_;
    delete group_;
    delete params_;
    tate_ = nullptr;
    group_ = nullptr;
    params_ = nullptr;
  }

  static mpint::SupersingularParams* params_;
  static SsGroup* group_;
  static TatePairing* tate_;
};

mpint::SupersingularParams* PairingFixture::params_ = nullptr;
SsGroup* PairingFixture::group_ = nullptr;
TatePairing* PairingFixture::tate_ = nullptr;

TEST(Fp2Arithmetic, FieldAxioms) {
  const Fp2Ctx f(BigInt{103});  // 103 % 4 == 3
  const Fp2 a{BigInt{17}, BigInt{42}};
  const Fp2 b{BigInt{88}, BigInt{5}};
  const Fp2 c{BigInt{3}, BigInt{99}};
  const auto add = [&](const Fp2& x, const Fp2& y) {
    return Fp2{(x.re + y.re).mod(f.p()), (x.im + y.im).mod(f.p())};
  };
  EXPECT_EQ(f.mul(a, b), f.mul(b, a));
  EXPECT_EQ(f.mul(a, add(b, c)), add(f.mul(a, b), f.mul(a, c)));
  EXPECT_EQ(f.mul(a, f.one()), a);
  EXPECT_EQ(f.sqr(a), f.mul(a, a));
  EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
  EXPECT_THROW((void)f.inv(Fp2{}), std::domain_error);
}

TEST(Fp2Arithmetic, ISquaredIsMinusOne) {
  const Fp2Ctx f(BigInt{103});
  const Fp2 i{BigInt{}, BigInt{1}};
  EXPECT_EQ(f.mul(i, i), (Fp2{BigInt{102}, BigInt{}}));  // -1 mod 103
}

TEST(Fp2Arithmetic, ConjAndNormInFp) {
  const Fp2Ctx f(BigInt{103});
  const Fp2 a{BigInt{17}, BigInt{42}};
  const Fp2 norm = f.mul(a, f.conj(a));
  EXPECT_TRUE(norm.im.is_zero());  // a * conj(a) lies in F_p
}

TEST(Fp2Arithmetic, PowMatchesRepeatedMul) {
  const Fp2Ctx f(BigInt{103});
  const Fp2 a{BigInt{17}, BigInt{42}};
  Fp2 acc = f.one();
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(f.pow(a, BigInt{e}), acc) << e;
    acc = f.mul(acc, a);
  }
}

TEST(Fp2Arithmetic, RejectsWrongPrimeShape) {
  EXPECT_THROW(Fp2Ctx(BigInt{101}), std::invalid_argument);  // 101 % 4 == 1
}

TEST_F(PairingFixture, GroupGeneratorHasOrderQ) {
  const auto& c = group_->curve();
  EXPECT_TRUE(c.is_on_curve(c.generator()));
  EXPECT_TRUE(c.mul(group_->q(), c.generator()).infinity);
  EXPECT_FALSE(c.generator().infinity);
}

TEST_F(PairingFixture, MapToPointLandsInSubgroup) {
  for (const char* label : {"alice", "bob", "carol", "u-1234"}) {
    const ec::Point pt = group_->map_to_point(std::string_view{label});
    EXPECT_FALSE(pt.infinity);
    EXPECT_TRUE(group_->curve().is_on_curve(pt));
    EXPECT_TRUE(group_->curve().mul(group_->q(), pt).infinity) << label;
  }
  // Deterministic.
  EXPECT_EQ(group_->map_to_point(std::string_view{"alice"}),
            group_->map_to_point(std::string_view{"alice"}));
  EXPECT_NE(group_->map_to_point(std::string_view{"alice"}),
            group_->map_to_point(std::string_view{"bob"}));
}

TEST_F(PairingFixture, PairingValueHasOrderQ) {
  const ec::Point g = group_->generator();
  const Fp2 e = tate_->pair(g, g);
  const Fp2Ctx& f = group_->fp2();
  EXPECT_FALSE(e.is_one());  // non-degeneracy on the distorted pair
  EXPECT_TRUE(f.pow(e, group_->q()).is_one());
}

TEST_F(PairingFixture, Bilinearity) {
  hash::HmacDrbg rng(7, "bilinear");
  const ec::Point g = group_->generator();
  const auto& curve = group_->curve();
  const Fp2Ctx& f = group_->fp2();
  const Fp2 base = tate_->pair(g, g);
  for (int trial = 0; trial < 3; ++trial) {
    const BigInt a = mpint::random_range(rng, BigInt{1}, group_->q());
    const BigInt b = mpint::random_range(rng, BigInt{1}, group_->q());
    const Fp2 lhs = tate_->pair(curve.mul(a, g), curve.mul(b, g));
    const Fp2 rhs = f.pow(base, mpint::mod_mul(a, b, group_->q()));
    EXPECT_EQ(lhs, rhs) << "trial " << trial;
  }
}

TEST_F(PairingFixture, LinearityInEachArgument) {
  hash::HmacDrbg rng(8, "linear");
  const ec::Point g = group_->generator();
  const auto& curve = group_->curve();
  const Fp2Ctx& f = group_->fp2();
  const BigInt a = mpint::random_range(rng, BigInt{1}, group_->q());
  const ec::Point p1 = curve.mul(a, g);
  const ec::Point q1 = group_->map_to_point(std::string_view{"argtest"});
  // e(P, Q1 + Q2) == e(P, Q1) * e(P, Q2)
  const ec::Point q2 = curve.mul(BigInt{5}, q1);
  const Fp2 lhs = tate_->pair(p1, curve.add(q1, q2));
  const Fp2 rhs = f.mul(tate_->pair(p1, q1), tate_->pair(p1, q2));
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingFixture, InfinityArgumentsGiveIdentity) {
  const ec::Point g = group_->generator();
  EXPECT_TRUE(tate_->pair(ec::Point::at_infinity(), g).is_one());
  EXPECT_TRUE(tate_->pair(g, ec::Point::at_infinity()).is_one());
}

TEST_F(PairingFixture, PairingDistinguishesPoints) {
  // e(aG, G) != e(bG, G) for a != b — needed for signature soundness.
  const ec::Point g = group_->generator();
  const auto& curve = group_->curve();
  const Fp2 e2 = tate_->pair(curve.mul(BigInt{2}, g), g);
  const Fp2 e3 = tate_->pair(curve.mul(BigInt{3}, g), g);
  EXPECT_NE(e2, e3);
}

}  // namespace
}  // namespace idgka::pairing
