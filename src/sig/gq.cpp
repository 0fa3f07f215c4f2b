#include "sig/gq.h"

#include <array>
#include <stdexcept>
#include <vector>

#include "hash/sha256.h"

namespace idgka::sig {

namespace {

// Candidate `ctr` of H(ID): SHA-256("idgka-gq-id" || id || ctr), expanded to
// |n| + 64 bits and reduced mod n.
BigInt hash_id_candidate(const GqParams& params, std::uint32_t id, std::uint32_t ctr) {
  hash::Sha256 h;
  h.update(std::string_view{"idgka-gq-id|"});
  std::array<std::uint8_t, 8> buf{};
  for (int i = 0; i < 4; ++i) buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (24 - i * 8));
  for (int i = 0; i < 4; ++i) buf[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(ctr >> (24 - i * 8));
  h.update(buf);
  std::vector<std::uint8_t> material;
  auto digest = h.finalize();
  while (material.size() * 8 < params.n.bit_length() + 64) {
    material.insert(material.end(), digest.begin(), digest.end());
    digest = hash::Sha256::digest(digest);
  }
  return BigInt::from_bytes_be(material).mod(params.n);
}

}  // namespace

BigInt gq_hash_id(const GqParams& params, std::uint32_t id) {
  // The first candidate that is a unit mod n (overwhelmingly ctr = 0).
  for (std::uint32_t ctr = 0;; ++ctr) {
    BigInt v = hash_id_candidate(params, id, ctr);
    if (!v.is_zero() && mpint::gcd(v, params.n).is_one()) return v;
  }
}

GqIdentity gq_identity(const GqParams& params, std::uint32_t id) {
  BigInt h = gq_hash_id(params, id);
  BigInt h_inv = mpint::mod_inverse(h, params.n);
  return GqIdentity{id, std::move(h), std::move(h_inv)};
}

BigInt gq_challenge(std::span<const std::uint8_t> first, std::span<const std::uint8_t> second) {
  hash::Sha256 h;
  h.update(std::string_view{"idgka-gq-chal|"});
  std::array<std::uint8_t, 4> len_be{};
  const std::uint32_t len = static_cast<std::uint32_t>(first.size());
  for (int i = 0; i < 4; ++i) len_be[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (24 - i * 8));
  h.update(len_be);
  h.update(first);
  h.update(second);
  const auto digest = h.finalize();
  return BigInt::from_bytes_be(digest);
}

GqPkg::GqPkg(mpint::Rng& rng, std::size_t modulus_bits, int mr_rounds)
    : GqPkg(mpint::generate_gq_modulus(rng, modulus_bits, BigInt{65537}, mr_rounds)) {}

GqPkg::GqPkg(mpint::GqModulus modulus)
    : key_(std::move(modulus)), params_{key_.n, key_.e}, ctx_(key_.n) {}

BigInt GqPkg::extract(const GqIdentity& identity) const {
  return ctx_.exp(identity.h, key_.d);
}

GqSigner::GqSigner(GqParams params, std::uint32_t id, BigInt secret_key)
    : GqSigner(std::move(params), id, std::move(secret_key), nullptr) {}

GqSigner::GqSigner(GqParams params, std::uint32_t id, BigInt secret_key,
                   std::shared_ptr<const mpint::ModContext> ctx)
    : params_(std::move(params)), id_(id), secret_(std::move(secret_key)), ctx_(std::move(ctx)) {
  if (!ctx_) {
    ctx_ = std::make_shared<const mpint::ModContext>(params_.n);
  } else if (ctx_->modulus() != params_.n) {
    throw std::invalid_argument("GqSigner: context modulus does not match params.n");
  }
}

GqSigner::Commitment GqSigner::commit(mpint::Rng& rng) const {
  Commitment c;
  c.tau = mpint::random_unit(rng, params_.n);
  c.t = ctx_->exp(c.tau, params_.e);
  return c;
}

BigInt GqSigner::respond(const Commitment& commitment, const BigInt& c) const {
  // tau * S^c mod n as one residue chain (single conversion out).
  mpint::Residue acc = ctx_->to_residue(secret_);
  ctx_->exp(acc, c, acc);
  const mpint::Residue tau = ctx_->to_residue(commitment.tau);
  ctx_->mul(acc, tau, acc);
  return ctx_->from_residue(acc);
}

GqSignature GqSigner::sign(std::span<const std::uint8_t> message, mpint::Rng& rng) const {
  const Commitment commitment = commit(rng);
  const BigInt c = gq_challenge(commitment.t.to_bytes_be(), message);
  return GqSignature{respond(commitment, c), c};
}

bool gq_verify(const GqParams& params, const mpint::ModContext& ctx, const GqIdentity& signer,
               std::span<const std::uint8_t> message, const GqSignature& sig) {
  if (ctx.modulus() != params.n) {
    throw std::invalid_argument("gq_verify: context modulus does not match params.n");
  }
  if (sig.s.is_zero() || sig.s >= params.n || sig.s.negative()) return false;
  // t' = s^e * H(ID)^{-c} mod n, as one joint double exponentiation.
  const std::array<BigInt, 2> bases{sig.s, signer.h_inv};
  const std::array<BigInt, 2> exps{params.e, sig.c};
  const BigInt t_prime = ctx.multi_exp(bases, exps);
  return gq_challenge(t_prime.to_bytes_be(), message) == sig.c;
}

bool gq_batch_verify(const GqParams& params, const mpint::ModContext& ctx,
                     std::span<const GqIdentity> signers, std::span<const BigInt> s_values,
                     const BigInt& c, std::span<const std::uint8_t> z_bytes) {
  if (ctx.modulus() != params.n) {
    throw std::invalid_argument("gq_batch_verify: context modulus does not match params.n");
  }
  if (signers.size() != s_values.size() || signers.empty()) return false;
  std::vector<BigInt> h_invs;
  h_invs.reserve(signers.size());
  for (std::size_t i = 0; i < signers.size(); ++i) {
    if (s_values[i].is_zero() || s_values[i].negative() || s_values[i] >= params.n) {
      return false;
    }
    h_invs.push_back(signers[i].h_inv);
  }
  const std::array<BigInt, 2> bases{ctx.product(s_values), ctx.product(h_invs)};
  const std::array<BigInt, 2> exps{params.e, c};
  const BigInt t_prime = ctx.multi_exp(bases, exps);
  return gq_challenge(t_prime.to_bytes_be(), z_bytes) == c;
}

}  // namespace idgka::sig
