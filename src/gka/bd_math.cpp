#include "gka/bd_math.h"

#include <stdexcept>

namespace idgka::gka::bd {

BigInt compute_x(const GroupCtx& grp, const BigInt& z_next, const BigInt& z_prev,
                 const BigInt& r) {
  const mpint::ModContext& mp = grp.p;
  // (z_next / z_prev)^r as one residue chain: convert in, multiply and
  // exponentiate in Montgomery domain, convert out once.
  mpint::Residue ratio = mp.to_residue(z_next);
  const mpint::Residue inv_prev = mp.to_residue(mp.inv(z_prev));
  mp.mul(ratio, inv_prev, ratio);
  mp.exp(ratio, r, ratio);
  return mp.from_residue(ratio);
}

BigInt compute_key(const GroupCtx& grp, std::span<const BigInt> z,
                   std::span<const BigInt> x, std::size_t index, const BigInt& r) {
  const std::size_t n = z.size();
  if (x.size() != n || n < 2 || index >= n) {
    throw std::invalid_argument("bd::compute_key: inconsistent ring sizes");
  }
  const mpint::ModContext& mp = grp.p;

  // K = z_{i-1}^{n r_i} * prod_{j=0}^{n-2} X_{i+j}^{n-1-j}, evaluated as one
  // joint multi-exponentiation: the z term is the lone wide exponent, the
  // X powers are tiny integers (n-1 down to 1) that Pippenger bucketing
  // absorbs almost for free.
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  bases.reserve(n);
  exps.reserve(n);
  bases.push_back(z[(index + n - 1) % n]);
  exps.push_back((BigInt{static_cast<std::uint64_t>(n)} * r).mod(grp.q));
  for (std::size_t j = 0; j + 1 < n; ++j) {
    bases.push_back(x[(index + j) % n]);
    exps.push_back(BigInt{static_cast<std::uint64_t>(n - 1 - j)});
  }
  return mp.multi_exp(bases, exps);
}

bool lemma1_holds(const GroupCtx& grp, std::span<const BigInt> x) {
  return grp.p.product(x).is_one();
}

}  // namespace idgka::gka::bd
