#include "sig/dsa.h"

#include <stdexcept>
#include <string>

#include "hash/hmac_drbg.h"
#include "hash/sha256.h"

namespace idgka::sig {

namespace {

void require_ctx_p(const DsaParams& params, const mpint::ModContext& ctx_p,
                   const char* where) {
  if (ctx_p.modulus() != params.p) {
    throw std::invalid_argument(std::string(where) + ": context modulus does not match params.p");
  }
}

// SHA-256(message) truncated to the bit length of q, per FIPS 186-4 §4.2.
BigInt message_digest(const BigInt& q, std::span<const std::uint8_t> message) {
  const auto digest = hash::Sha256::digest(message);
  BigInt z = BigInt::from_bytes_be(digest);
  const std::size_t qbits = q.bit_length();
  if (z.bit_length() > qbits) z >>= (z.bit_length() - qbits);
  return z;
}

}  // namespace

DsaParams dsa_generate_params(mpint::Rng& rng, std::size_t p_bits, std::size_t q_bits,
                              int mr_rounds) {
  const mpint::SchnorrGroup grp = mpint::generate_schnorr_group(rng, p_bits, q_bits, mr_rounds);
  return DsaParams{grp.p, grp.q, grp.g};
}

DsaKeyPair dsa_generate_keypair(const DsaParams& params, const mpint::ModContext& ctx_p,
                                mpint::Rng& rng) {
  require_ctx_p(params, ctx_p, "dsa_generate_keypair");
  DsaKeyPair kp;
  kp.x = mpint::random_range(rng, BigInt{1}, params.q);
  kp.y = ctx_p.exp(params.g, kp.x);
  return kp;
}

DsaCommittedSignature dsa_sign_committed(const DsaParams& params,
                                         const mpint::ModContext& ctx_p, const DsaKeyPair& key,
                                         std::span<const std::uint8_t> message,
                                         mpint::Rng& rng) {
  require_ctx_p(params, ctx_p, "dsa_sign");
  const BigInt z = message_digest(params.q, message);
  while (true) {
    const BigInt k = mpint::random_range(rng, BigInt{1}, params.q);
    const BigInt big_r = ctx_p.exp(params.g, k);
    const BigInt r = big_r.mod(params.q);
    if (r.is_zero()) continue;
    const BigInt k_inv = mpint::mod_inverse(k, params.q);
    const BigInt s = mpint::mod_mul(k_inv, (z + key.x * r).mod(params.q), params.q);
    if (s.is_zero()) continue;
    return DsaCommittedSignature{DsaSignature{r, s}, big_r};
  }
}

DsaSignature dsa_sign(const DsaParams& params, const mpint::ModContext& ctx_p,
                      const DsaKeyPair& key, std::span<const std::uint8_t> message,
                      mpint::Rng& rng) {
  return dsa_sign_committed(params, ctx_p, key, message, rng).sig;
}

bool dsa_verify(const DsaParams& params, const mpint::ModContext& ctx_p, const BigInt& y,
                std::span<const std::uint8_t> message, const DsaSignature& sig) {
  require_ctx_p(params, ctx_p, "dsa_verify");
  if (sig.r <= BigInt{} || sig.r >= params.q) return false;
  if (sig.s <= BigInt{} || sig.s >= params.q) return false;
  const BigInt z = message_digest(params.q, message);
  const BigInt w = mpint::mod_inverse(sig.s, params.q);
  const BigInt u1 = mpint::mod_mul(z, w, params.q);
  const BigInt u2 = mpint::mod_mul(sig.r, w, params.q);
  // g^u1 * y^u2 mod p as one residue chain; only the final value leaves the
  // Montgomery domain (for the mod-q comparison).
  mpint::Residue acc = ctx_p.to_residue(params.g);
  ctx_p.exp(acc, u1, acc);
  mpint::Residue term = ctx_p.to_residue(y);
  ctx_p.exp(term, u2, term);
  ctx_p.mul(acc, term, acc);
  const BigInt v = ctx_p.from_residue(acc).mod(params.q);
  return v == sig.r;
}

namespace {

void append_len_prefixed(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes) {
  const std::uint32_t len = static_cast<std::uint32_t>(bytes.size());
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(len >> (i * 8)));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace

bool dsa_batch_verify(const DsaParams& params, const mpint::ModContext& ctx_p,
                      std::span<const BigInt> ys,
                      std::span<const std::vector<std::uint8_t>> messages,
                      std::span<const DsaCommittedSignature> sigs) {
  require_ctx_p(params, ctx_p, "dsa_batch_verify");
  const std::size_t n = ys.size();
  if (n == 0 || messages.size() != n || sigs.size() != n) return false;

  // Per-signature structural checks, and the binding of each commitment to
  // its reduced r — without it a forger could pick R freely.
  for (const DsaCommittedSignature& cs : sigs) {
    if (cs.sig.r <= BigInt{} || cs.sig.r >= params.q) return false;
    if (cs.sig.s <= BigInt{} || cs.sig.s >= params.q) return false;
    if (cs.commitment <= BigInt{} || cs.commitment >= params.p) return false;
    if (cs.commitment.mod(params.q) != cs.sig.r) return false;
  }

  // Scalars t_i from a DRBG seeded over the whole batch: the batch content
  // is committed before any t_i is known, so a forged member escapes with
  // probability ~2^-64. Deterministic by construction — no caller RNG
  // stream is consumed.
  std::vector<std::uint8_t> seed;
  for (std::size_t i = 0; i < n; ++i) {
    append_len_prefixed(seed, ys[i].to_bytes_be());
    append_len_prefixed(seed, messages[i]);
    append_len_prefixed(seed, sigs[i].sig.r.to_bytes_be());
    append_len_prefixed(seed, sigs[i].sig.s.to_bytes_be());
    append_len_prefixed(seed, sigs[i].commitment.to_bytes_be());
  }
  const auto digest = hash::Sha256::digest(seed);
  hash::HmacDrbg drbg(digest);

  // prod_i R_i^{t_i} == g^{sum_i t_i u1_i} * prod_i y_i^{t_i u2_i} (mod p):
  // the left side is a wide product over 64-bit scalars, the right side one
  // more joint multi-exp with |q|-bit exponents.
  std::vector<BigInt> lhs_bases(n);
  std::vector<BigInt> lhs_exps(n);
  std::vector<BigInt> rhs_bases;
  std::vector<BigInt> rhs_exps;
  rhs_bases.reserve(n + 1);
  rhs_exps.reserve(n + 1);
  rhs_bases.push_back(params.g);
  rhs_exps.push_back(BigInt{});  // sum_i t_i u1_i, accumulated below
  for (std::size_t i = 0; i < n; ++i) {
    BigInt t = mpint::random_bits(drbg, 64);
    if (t.is_zero()) t = BigInt{1};
    const BigInt z = message_digest(params.q, messages[i]);
    const BigInt w = mpint::mod_inverse(sigs[i].sig.s, params.q);
    const BigInt u1 = mpint::mod_mul(z, w, params.q);
    const BigInt u2 = mpint::mod_mul(sigs[i].sig.r, w, params.q);
    lhs_bases[i] = sigs[i].commitment;
    lhs_exps[i] = t;
    rhs_exps[0] = (rhs_exps[0] + t * u1).mod(params.q);
    rhs_bases.push_back(ys[i]);
    rhs_exps.push_back(mpint::mod_mul(t, u2, params.q));
  }
  return ctx_p.multi_exp(lhs_bases, lhs_exps) == ctx_p.multi_exp(rhs_bases, rhs_exps);
}

}  // namespace idgka::sig
