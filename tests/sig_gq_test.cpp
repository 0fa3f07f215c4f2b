// GQ ID-based signature variant tests: soundness, forgery rejection and the
// Eq.-2 batch verification that the proposed GKA depends on.
#include "sig/gq.h"

#include <gtest/gtest.h>

#include "energy/profiles.h"
#include "hash/hmac_drbg.h"

namespace idgka::sig {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class GqFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hash::HmacDrbg rng(1001, "gq-params");
    pkg_ = new GqPkg(rng, /*modulus_bits=*/512, /*mr_rounds=*/16);
    ctx_ = new mpint::ModContext(pkg_->params().n);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete pkg_;
    ctx_ = nullptr;
    pkg_ = nullptr;
  }
  static GqIdentity identity(std::uint32_t id) { return gq_identity(pkg_->params(), id); }
  static BigInt extract(std::uint32_t id) { return pkg_->extract(identity(id)); }
  static bool verify(std::uint32_t id, std::string_view message, const GqSignature& sig) {
    return gq_verify(pkg_->params(), *ctx_, identity(id), bytes(message), sig);
  }
  static GqPkg* pkg_;
  static mpint::ModContext* ctx_;
};

GqPkg* GqFixture::pkg_ = nullptr;
mpint::ModContext* GqFixture::ctx_ = nullptr;

TEST_F(GqFixture, HashIdIsUnitAndDeterministic) {
  const BigInt h1 = gq_hash_id(pkg_->params(), 42);
  EXPECT_EQ(h1, gq_hash_id(pkg_->params(), 42));
  EXPECT_NE(h1, gq_hash_id(pkg_->params(), 43));
  EXPECT_TRUE(mpint::gcd(h1, pkg_->params().n).is_one());
  EXPECT_LT(h1, pkg_->params().n);
}

TEST_F(GqFixture, IdentityCarriesHashAndInverse) {
  for (const std::uint32_t id : {0U, 1U, 42U, 0xFFFFFFFEU}) {
    const GqIdentity u = identity(id);
    EXPECT_EQ(u.id, id);
    EXPECT_EQ(u.h, gq_hash_id(pkg_->params(), id));
    EXPECT_LT(u.h_inv, pkg_->params().n);
    EXPECT_TRUE(mpint::mod_mul(u.h, u.h_inv, pkg_->params().n).is_one());
  }
}

TEST_F(GqFixture, SharedContextMustMatchModulus) {
  const auto wrong = std::make_shared<const mpint::ModContext>(pkg_->params().n + BigInt{2});
  EXPECT_THROW(GqSigner(pkg_->params(), 1, extract(1), wrong), std::invalid_argument);
  const GqSignature sig{BigInt{1}, BigInt{1}};
  const GqIdentity u = identity(1);
  EXPECT_THROW((void)gq_verify(pkg_->params(), *wrong, u, bytes("m"), sig),
               std::invalid_argument);
  const BigInt s{1};
  EXPECT_THROW((void)gq_batch_verify(pkg_->params(), *wrong, {&u, 1}, {&s, 1}, BigInt{1},
                                     bytes("z")),
               std::invalid_argument);
}

TEST_F(GqFixture, ExtractSatisfiesKeyEquation) {
  // S_ID^e == H(ID) mod n.
  const BigInt s_id = extract(7);
  const BigInt lhs = ctx_->exp(s_id, pkg_->params().e);
  EXPECT_EQ(lhs, gq_hash_id(pkg_->params(), 7));
}

TEST_F(GqFixture, SignVerifyRoundTrip) {
  hash::HmacDrbg rng(2, "sign");
  const std::uint32_t id = 1234;
  const GqSigner signer(pkg_->params(), id, extract(id));
  const auto sig = signer.sign(bytes("hello group"), rng);
  EXPECT_TRUE(verify(id, "hello group", sig));
}

TEST_F(GqFixture, VerifyRejectsWrongMessage) {
  hash::HmacDrbg rng(3, "sign");
  const GqSigner signer(pkg_->params(), 1, extract(1));
  const auto sig = signer.sign(bytes("msg-a"), rng);
  EXPECT_FALSE(verify(1, "msg-b", sig));
}

TEST_F(GqFixture, VerifyRejectsWrongIdentity) {
  hash::HmacDrbg rng(4, "sign");
  const GqSigner signer(pkg_->params(), 1, extract(1));
  const auto sig = signer.sign(bytes("msg"), rng);
  EXPECT_FALSE(verify(2, "msg", sig));
}

TEST_F(GqFixture, VerifyRejectsTamperedSignature) {
  hash::HmacDrbg rng(5, "sign");
  const GqSigner signer(pkg_->params(), 1, extract(1));
  auto sig = signer.sign(bytes("msg"), rng);
  sig.s = (sig.s + BigInt{1}).mod(pkg_->params().n);
  EXPECT_FALSE(verify(1, "msg", sig));
}

TEST_F(GqFixture, VerifyRejectsOutOfRangeS) {
  GqSignature sig{pkg_->params().n + BigInt{5}, BigInt{17}};
  EXPECT_FALSE(verify(1, "msg", sig));
  sig.s = BigInt{};
  EXPECT_FALSE(verify(1, "msg", sig));
}

TEST_F(GqFixture, SignerWithWrongSecretFailsVerification) {
  hash::HmacDrbg rng(6, "sign");
  // Signer claims identity 9 but holds the key for identity 8.
  const GqSigner impostor(pkg_->params(), 9, extract(8));
  const auto sig = impostor.sign(bytes("msg"), rng);
  EXPECT_FALSE(verify(9, "msg", sig));
}

// --- Batch verification (the protocol's Eq. 2 shape) ---------------------

struct BatchInputs {
  std::vector<GqIdentity> identities;
  std::vector<BigInt> s;
  BigInt c;
  std::vector<std::uint8_t> z;
};

BatchInputs make_batch(const GqPkg& pkg, std::size_t n, std::uint64_t seed) {
  hash::HmacDrbg rng(seed, "batch");
  BatchInputs b;
  b.z = {0xde, 0xad, 0xbe, 0xef};
  std::vector<GqSigner> signers;
  std::vector<GqSigner::Commitment> commits;
  BigInt t_prod{1};
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(100 + i);
    b.identities.push_back(gq_identity(pkg.params(), id));
    signers.emplace_back(pkg.params(), id, pkg.extract(b.identities.back()));
    commits.push_back(signers.back().commit(rng));
    t_prod = mpint::mod_mul(t_prod, commits.back().t, pkg.params().n);
  }
  b.c = gq_challenge(t_prod.to_bytes_be(), b.z);
  for (std::size_t i = 0; i < n; ++i) {
    b.s.push_back(signers[i].respond(commits[i], b.c));
  }
  return b;
}

class GqBatchTest : public GqFixture, public ::testing::WithParamInterface<std::size_t> {};

TEST_P(GqBatchTest, AcceptsHonestBatch) {
  const auto b = make_batch(*pkg_, GetParam(), 10 + GetParam());
  EXPECT_TRUE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
}

TEST_P(GqBatchTest, RejectsSingleCorruptedShare) {
  auto b = make_batch(*pkg_, GetParam(), 20 + GetParam());
  const std::size_t victim = GetParam() / 2;
  b.s[victim] = (b.s[victim] + BigInt{1}).mod(pkg_->params().n);
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
}

TEST_P(GqBatchTest, RejectsWrongZ) {
  auto b = make_batch(*pkg_, GetParam(), 30 + GetParam());
  b.z.push_back(0x00);
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, GqBatchTest, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_F(GqFixture, BatchRejectsMismatchedArity) {
  auto b = make_batch(*pkg_, 3, 99);
  b.identities.pop_back();
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, {}, {}, b.c, b.z));
}

TEST_F(GqFixture, BatchRejectsSwappedIdentities) {
  auto b = make_batch(*pkg_, 3, 101);
  std::swap(b.identities[0], b.identities[1]);
  // The product of H(U_i) is invariant under permutation, but each s_i was
  // bound to its own secret; swapping only identities keeps the product equal, so
  // the batch equation still holds (the batch binds the *set*, not order).
  EXPECT_TRUE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
  // Replacing an identity with one outside the signer set must fail.
  b.identities[0] = identity(999);
  EXPECT_FALSE(gq_batch_verify(pkg_->params(), *ctx_, b.identities, b.s, b.c, b.z));
}

TEST(GqAccounting, SignatureBitsMatchPaperShape) {
  // |s| = |n|, |c| = 160 -> 1184 bits for the 1024-bit paper profile.
  EXPECT_EQ(energy::wire::kGqSigBits, energy::wire::kGqModulusBits + 160);
}

}  // namespace
}  // namespace idgka::sig
