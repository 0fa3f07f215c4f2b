// DSA / ECDSA / SOK signature baselines + certificate infrastructure tests.
#include <gtest/gtest.h>

#include "hash/hmac_drbg.h"
#include "pki/certificate.h"
#include "sig/dsa.h"
#include "sig/ecdsa.h"
#include "sig/sok.h"

namespace idgka::sig {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// DSA
// ---------------------------------------------------------------------------

class DsaFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hash::HmacDrbg rng(2001, "dsa-params");
    params_ = new DsaParams(dsa_generate_params(rng, 512, 160, 16));
    ctx_ = new mpint::ModContext(params_->p);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
    delete params_;
    params_ = nullptr;
  }
  static DsaParams* params_;
  static mpint::ModContext* ctx_;  ///< shared mod-p context
};

DsaParams* DsaFixture::params_ = nullptr;
mpint::ModContext* DsaFixture::ctx_ = nullptr;

TEST_F(DsaFixture, SignVerifyRoundTrip) {
  hash::HmacDrbg rng(1, "dsa");
  const auto kp = dsa_generate_keypair(*params_, *ctx_, rng);
  const auto sig = dsa_sign(*params_, *ctx_, kp, bytes("attack at dawn"), rng);
  EXPECT_TRUE(dsa_verify(*params_, *ctx_, kp.y, bytes("attack at dawn"), sig));
}

TEST_F(DsaFixture, RejectsWrongMessageKeyAndTamper) {
  hash::HmacDrbg rng(2, "dsa");
  const auto kp = dsa_generate_keypair(*params_, *ctx_, rng);
  const auto kp2 = dsa_generate_keypair(*params_, *ctx_, rng);
  const auto sig = dsa_sign(*params_, *ctx_, kp, bytes("m1"), rng);
  EXPECT_FALSE(dsa_verify(*params_, *ctx_, kp.y, bytes("m2"), sig));
  EXPECT_FALSE(dsa_verify(*params_, *ctx_, kp2.y, bytes("m1"), sig));
  auto bad = sig;
  bad.r = (bad.r + BigInt{1}).mod(params_->q);
  EXPECT_FALSE(dsa_verify(*params_, *ctx_, kp.y, bytes("m1"), bad));
  bad = sig;
  bad.s = BigInt{};
  EXPECT_FALSE(dsa_verify(*params_, *ctx_, kp.y, bytes("m1"), bad));
  bad = sig;
  bad.r = params_->q + BigInt{3};
  EXPECT_FALSE(dsa_verify(*params_, *ctx_, kp.y, bytes("m1"), bad));
}

TEST_F(DsaFixture, SignatureSize) {
  EXPECT_EQ(dsa_signature_bits(*params_), 320U);
}

TEST_F(DsaFixture, DistinctSignaturesPerCall) {
  hash::HmacDrbg rng(3, "dsa");
  const auto kp = dsa_generate_keypair(*params_, *ctx_, rng);
  const auto s1 = dsa_sign(*params_, *ctx_, kp, bytes("m"), rng);
  const auto s2 = dsa_sign(*params_, *ctx_, kp, bytes("m"), rng);
  EXPECT_NE(s1.r, s2.r);  // fresh nonce per signature
  EXPECT_TRUE(dsa_verify(*params_, *ctx_, kp.y, bytes("m"), s1));
  EXPECT_TRUE(dsa_verify(*params_, *ctx_, kp.y, bytes("m"), s2));
}

// ---------------------------------------------------------------------------
// DSA batch verification (screening)
// ---------------------------------------------------------------------------

struct DsaBatch {
  std::vector<BigInt> ys;
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<DsaCommittedSignature> sigs;
};

// n distinct signers, each committing to one distinct message.
DsaBatch make_batch(const DsaParams& params, const mpint::ModContext& ctx_p,
                    std::size_t n, std::uint64_t seed) {
  hash::HmacDrbg rng(seed, "dsa-batch");
  DsaBatch b;
  for (std::size_t i = 0; i < n; ++i) {
    const auto kp = dsa_generate_keypair(params, ctx_p, rng);
    std::vector<std::uint8_t> msg{static_cast<std::uint8_t>(i), 0x42,
                                  static_cast<std::uint8_t>(seed & 0xff)};
    b.sigs.push_back(dsa_sign_committed(params, ctx_p, kp, msg, rng));
    b.ys.push_back(kp.y);
    b.messages.push_back(std::move(msg));
  }
  return b;
}

TEST_F(DsaFixture, BatchVerifyAcceptsAllValid) {
  const mpint::ModContext ctx(params_->p);
  for (const std::size_t n : {1U, 2U, 8U}) {
    const auto b = make_batch(*params_, ctx, n, 100 + n);
    EXPECT_TRUE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs))
        << "batch of " << n;
  }
}

TEST_F(DsaFixture, BatchVerifyMatchesIndividualVerdicts) {
  const mpint::ModContext ctx(params_->p);
  const auto b = make_batch(*params_, ctx, 5, 200);
  for (std::size_t i = 0; i < b.sigs.size(); ++i) {
    EXPECT_TRUE(dsa_verify(*params_, ctx, b.ys[i], b.messages[i], b.sigs[i].sig));
  }
  EXPECT_TRUE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs));
}

TEST_F(DsaFixture, BatchVerifyRejectsAnySingleForgery) {
  const mpint::ModContext ctx(params_->p);
  const std::size_t n = 6;
  // Each position in turn carries one forged element; the rest stay valid.
  for (std::size_t i = 0; i < n; ++i) {
    auto b = make_batch(*params_, ctx, n, 300);
    b.sigs[i].sig.s = (b.sigs[i].sig.s + BigInt{1}).mod(params_->q);
    EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs))
        << "tampered s at " << i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto b = make_batch(*params_, ctx, n, 301);
    b.messages[i].push_back(0xFF);
    EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs))
        << "tampered message at " << i;
  }
}

TEST_F(DsaFixture, BatchVerifyBindsCommitmentToR) {
  const mpint::ModContext ctx(params_->p);
  auto b = make_batch(*params_, ctx, 4, 400);
  // A commitment inconsistent with sig.r must fail the r == R mod q binding
  // even though r and s still verify individually.
  b.sigs[2].commitment = ctx.mul(b.sigs[2].commitment, params_->g);
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs));
}

TEST_F(DsaFixture, BatchVerifyRejectsRangeViolations) {
  const mpint::ModContext ctx(params_->p);
  auto b = make_batch(*params_, ctx, 3, 500);
  b.sigs[0].sig.r = BigInt{};  // r = 0 out of [1, q)
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs));
  b = make_batch(*params_, ctx, 3, 500);
  b.sigs[1].sig.s = params_->q;  // s = q out of [1, q)
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, b.messages, b.sigs));
}

TEST_F(DsaFixture, BatchVerifyRejectsEmptyAndMismatchedSpans) {
  const mpint::ModContext ctx(params_->p);
  const auto b = make_batch(*params_, ctx, 2, 600);
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, {}, {}, {}));
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, std::span{b.ys}.first(1), b.messages, b.sigs));
  EXPECT_FALSE(dsa_batch_verify(*params_, ctx, b.ys, std::span{b.messages}.first(1), b.sigs));
}

// ---------------------------------------------------------------------------
// ECDSA
// ---------------------------------------------------------------------------

TEST(Ecdsa, SignVerifyOnSecp160r1) {
  hash::HmacDrbg rng(4, "ecdsa");
  const auto& curve = ec::secp160r1();
  const auto kp = ecdsa_generate_keypair(curve, rng);
  EXPECT_TRUE(curve.is_on_curve(kp.q));
  const auto sig = ecdsa_sign(curve, kp, bytes("wireless"), rng);
  EXPECT_TRUE(ecdsa_verify(curve, kp.q, bytes("wireless"), sig));
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, bytes("wired"), sig));
}

TEST(Ecdsa, SignVerifyOnP256) {
  hash::HmacDrbg rng(5, "ecdsa");
  const auto& curve = ec::p256();
  const auto kp = ecdsa_generate_keypair(curve, rng);
  const auto sig = ecdsa_sign(curve, kp, bytes("modern"), rng);
  EXPECT_TRUE(ecdsa_verify(curve, kp.q, bytes("modern"), sig));
}

TEST(Ecdsa, RejectsTamperAndBadInputs) {
  hash::HmacDrbg rng(6, "ecdsa");
  const auto& curve = ec::secp160r1();
  const auto kp = ecdsa_generate_keypair(curve, rng);
  const auto sig = ecdsa_sign(curve, kp, bytes("m"), rng);
  auto bad = sig;
  bad.s = (bad.s + BigInt{1}).mod(curve.order());
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, bytes("m"), bad));
  bad = sig;
  bad.r = BigInt{};
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, bytes("m"), bad));
  // Public key off the curve must be rejected outright.
  ec::Point off = kp.q;
  off.x = (off.x + BigInt{1}).mod(curve.p());
  EXPECT_FALSE(ecdsa_verify(curve, off, bytes("m"), sig));
  EXPECT_FALSE(ecdsa_verify(curve, ec::Point::at_infinity(), bytes("m"), sig));
}

TEST(Ecdsa, SignatureSize) {
  EXPECT_EQ(ecdsa_signature_bits(ec::secp160r1()), 322U);  // |n| = 161 bits
}

// ---------------------------------------------------------------------------
// SOK (pairing-based ID signature)
// ---------------------------------------------------------------------------

class SokFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hash::HmacDrbg rng(3001, "sok-params");
    params_ = new mpint::SupersingularParams(
        mpint::generate_supersingular_params(rng, 256, 120, 16));
    group_ = new pairing::SsGroup(*params_);
    tate_ = new pairing::TatePairing(*group_);
    pkg_ = new SokPkg(*group_, rng);
  }
  static void TearDownTestSuite() {
    delete pkg_;
    delete tate_;
    delete group_;
    delete params_;
    pkg_ = nullptr;
    tate_ = nullptr;
    group_ = nullptr;
    params_ = nullptr;
  }
  static mpint::SupersingularParams* params_;
  static pairing::SsGroup* group_;
  static pairing::TatePairing* tate_;
  static SokPkg* pkg_;
};

mpint::SupersingularParams* SokFixture::params_ = nullptr;
pairing::SsGroup* SokFixture::group_ = nullptr;
pairing::TatePairing* SokFixture::tate_ = nullptr;
SokPkg* SokFixture::pkg_ = nullptr;

TEST_F(SokFixture, ExtractKeyLiesInSubgroup) {
  const ec::Point s_id = pkg_->extract(77);
  EXPECT_TRUE(group_->curve().is_on_curve(s_id));
  EXPECT_TRUE(group_->curve().mul(group_->q(), s_id).infinity);
}

TEST_F(SokFixture, SignVerifyRoundTrip) {
  hash::HmacDrbg rng(7, "sok");
  const std::uint32_t id = 501;
  const auto sig = sok_sign(*group_, id, pkg_->extract(id), bytes("pair me"), rng);
  EXPECT_TRUE(sok_verify(*tate_, pkg_->public_key(), id, bytes("pair me"), sig));
}

TEST_F(SokFixture, RejectsWrongMessageIdentityAndTamper) {
  hash::HmacDrbg rng(8, "sok");
  const std::uint32_t id = 502;
  const auto sig = sok_sign(*group_, id, pkg_->extract(id), bytes("m"), rng);
  EXPECT_FALSE(sok_verify(*tate_, pkg_->public_key(), id, bytes("m2"), sig));
  EXPECT_FALSE(sok_verify(*tate_, pkg_->public_key(), 503, bytes("m"), sig));
  auto bad = sig;
  bad.s2 = group_->curve().dbl(bad.s2);
  EXPECT_FALSE(sok_verify(*tate_, pkg_->public_key(), id, bytes("m"), bad));
  bad = sig;
  bad.s1 = ec::Point::at_infinity();
  EXPECT_FALSE(sok_verify(*tate_, pkg_->public_key(), id, bytes("m"), bad));
}

TEST_F(SokFixture, ImpostorKeyFails) {
  hash::HmacDrbg rng(9, "sok");
  // Holder of key for id 600 signs claiming id 601.
  const auto sig = sok_sign(*group_, 601, pkg_->extract(600), bytes("m"), rng);
  EXPECT_FALSE(sok_verify(*tate_, pkg_->public_key(), 601, bytes("m"), sig));
}

// ---------------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------------

TEST(Certificates, EcdsaIssueVerifyRoundTrip) {
  hash::HmacDrbg rng(10, "pki");
  const auto& curve = ec::secp160r1();
  pki::CertificateAuthority ca(curve, rng);
  const auto kp = ecdsa_generate_keypair(curve, rng);
  auto cert = ca.issue(42, pki::encode_ec_public(curve, kp.q), rng);
  EXPECT_TRUE(ca.verify(cert));
  EXPECT_EQ(cert.subject_id, 42U);
  const auto decoded = pki::decode_ec_public(curve, cert.subject_public_key);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, kp.q);
}

TEST(Certificates, DsaIssueVerifyRoundTrip) {
  hash::HmacDrbg rng(11, "pki");
  const auto params = dsa_generate_params(rng, 512, 160, 12);
  pki::CertificateAuthority ca(params, rng);
  const auto kp = dsa_generate_keypair(params, mpint::ModContext(params.p), rng);
  auto cert = ca.issue(7, pki::encode_dsa_public(params, kp.y), rng);
  EXPECT_TRUE(ca.verify(cert));
  const auto decoded = pki::decode_dsa_public(params, cert.subject_public_key);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, kp.y);
}

TEST(Certificates, TamperedCertificateRejected) {
  hash::HmacDrbg rng(12, "pki");
  const auto& curve = ec::secp160r1();
  pki::CertificateAuthority ca(curve, rng);
  const auto kp = ecdsa_generate_keypair(curve, rng);
  auto cert = ca.issue(42, pki::encode_ec_public(curve, kp.q), rng);
  auto bad = cert;
  bad.subject_id = 43;  // re-bind to a different identity
  EXPECT_FALSE(ca.verify(bad));
  bad = cert;
  bad.subject_public_key[5] ^= 0x01;
  EXPECT_FALSE(ca.verify(bad));
  bad = cert;
  bad.sig_s = (bad.sig_s + BigInt{1}).mod(curve.order());
  EXPECT_FALSE(ca.verify(bad));
}

TEST(Certificates, ExpiryWindowEnforced) {
  hash::HmacDrbg rng(13, "pki");
  const auto& curve = ec::secp160r1();
  pki::CertificateAuthority ca(curve, rng);
  const auto kp = ecdsa_generate_keypair(curve, rng);
  auto cert = ca.issue(42, pki::encode_ec_public(curve, kp.q), rng, /*validity=*/100);
  EXPECT_TRUE(ca.verify(cert, cert.not_before + 50));
  EXPECT_FALSE(ca.verify(cert, cert.not_after + 1));
  EXPECT_FALSE(ca.verify(cert, cert.not_before - 1));
}

TEST(Certificates, SerialNumbersIncrease) {
  hash::HmacDrbg rng(14, "pki");
  const auto& curve = ec::secp160r1();
  pki::CertificateAuthority ca(curve, rng);
  const auto kp = ecdsa_generate_keypair(curve, rng);
  const auto c1 = ca.issue(1, pki::encode_ec_public(curve, kp.q), rng);
  const auto c2 = ca.issue(2, pki::encode_ec_public(curve, kp.q), rng);
  EXPECT_LT(c1.serial, c2.serial);
}

TEST(Certificates, WireSizeIsPlausible) {
  hash::HmacDrbg rng(15, "pki");
  const auto& curve = ec::secp160r1();
  pki::CertificateAuthority ca(curve, rng);
  const auto kp = ecdsa_generate_keypair(curve, rng);
  const auto cert = ca.issue(42, pki::encode_ec_public(curve, kp.q), rng);
  // TBS(33 fixed + 41 key) + two ~20-byte scalars: comparable to the paper's
  // 86-byte ECDSA certificate claim.
  EXPECT_GT(cert.wire_size(), 80U);
  EXPECT_LT(cert.wire_size(), 160U);
}

}  // namespace
}  // namespace idgka::sig
