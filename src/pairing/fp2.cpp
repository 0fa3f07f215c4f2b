#include "pairing/fp2.h"

#include <stdexcept>

namespace idgka::pairing {

Fp2Ctx::Fp2Ctx(BigInt p) : p_(std::move(p)), fctx_(p_) {
  if ((p_.low_u64() & 3U) != 3U) {
    throw std::invalid_argument("Fp2Ctx: requires p % 4 == 3");
  }
}

BigInt Fp2Ctx::fadd(const BigInt& a, const BigInt& b) const {
  BigInt r = a + b;
  if (r >= p_) r -= p_;
  return r;
}

BigInt Fp2Ctx::fsub(const BigInt& a, const BigInt& b) const {
  BigInt r = a - b;
  if (r.negative()) r += p_;
  return r;
}

BigInt Fp2Ctx::fmul(const BigInt& a, const BigInt& b) const { return (a * b).mod(p_); }

Fp2 Fp2Ctx::mul(const Fp2& a, const Fp2& b) const {
  // Karatsuba-style: (a0 + a1 i)(b0 + b1 i) with i^2 = -1.
  const BigInt t0 = fmul(a.re, b.re);
  const BigInt t1 = fmul(a.im, b.im);
  const BigInt t2 = fmul(fadd(a.re, a.im), fadd(b.re, b.im));
  return Fp2{fsub(t0, t1), fsub(fsub(t2, t0), t1)};
}

Fp2 Fp2Ctx::sqr(const Fp2& a) const {
  // (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i.
  const BigInt cross = fmul(a.re, a.im);
  return Fp2{fmul(fadd(a.re, a.im), fsub(a.re, a.im)), fadd(cross, cross)};
}

Fp2 Fp2Ctx::conj(const Fp2& a) const {
  return Fp2{a.re, a.im.is_zero() ? BigInt{} : p_ - a.im};
}

Fp2 Fp2Ctx::inv(const Fp2& a) const {
  // (a0 - a1 i) / (a0^2 + a1^2)
  const BigInt norm = fadd(fmul(a.re, a.re), fmul(a.im, a.im));
  if (norm.is_zero()) throw std::domain_error("Fp2Ctx::inv: zero element");
  const BigInt ninv = fctx_.inv(norm);
  const Fp2 c = conj(a);
  return Fp2{fmul(c.re, ninv), fmul(c.im, ninv)};
}

Fp2 Fp2Ctx::pow(const Fp2& a, const BigInt& e) const {
  if (e.negative()) return pow(inv(a), -e);
  Fp2 result = one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = sqr(result);
    if (e.bit(i)) result = mul(result, a);
  }
  return result;
}

}  // namespace idgka::pairing
