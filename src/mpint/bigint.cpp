#include "mpint/bigint.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "mpint/residue.h"

namespace idgka::mpint {

namespace {

using u128 = unsigned __int128;

constexpr std::size_t kKaratsubaThreshold = 24;  // limbs

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace



void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_limbs(std::vector<Limb> limbs) {
  BigInt r;
  r.limbs_ = std::move(limbs);
  r.normalize();
  return r;
}

BigInt BigInt::from_limbs(const Limb* limbs, std::size_t k) {
  BigInt r;
  r.limbs_.assign(limbs, limbs + k);
  r.normalize();
  return r;
}

void BigInt::copy_limbs_to(Limb* out, std::size_t k) const {
  if (!limbs_.empty()) std::memcpy(out, limbs_.data(), limbs_.size() * sizeof(Limb));
  std::memset(out + limbs_.size(), 0, (k - limbs_.size()) * sizeof(Limb));
}

BigInt BigInt::from_hex(std::string_view s) {
  bool neg = false;
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) s.remove_prefix(2);
  if (s.empty()) throw std::invalid_argument("BigInt::from_hex: empty string");
  BigInt r;
  r.limbs_.assign((s.size() * 4 + 63) / 64, 0);
  std::size_t bitpos = 0;
  for (std::size_t i = s.size(); i-- > 0;) {
    const int d = hex_digit(s[i]);
    if (d < 0) throw std::invalid_argument("BigInt::from_hex: bad digit");
    r.limbs_[bitpos / 64] |= static_cast<Limb>(d) << (bitpos % 64);
    bitpos += 4;
  }
  r.normalize();
  r.negative_ = neg && !r.limbs_.empty();
  return r;
}

BigInt BigInt::from_dec(std::string_view s) {
  bool neg = false;
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) throw std::invalid_argument("BigInt::from_dec: empty string");
  BigInt r;
  for (char c : s) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt::from_dec: bad digit");
    // r = r * 10 + digit, done limb-wise to avoid full multiplies.
    Limb carry = static_cast<Limb>(c - '0');
    for (auto& limb : r.limbs_) {
      const u128 t = static_cast<u128>(limb) * 10 + carry;
      limb = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    if (carry != 0) r.limbs_.push_back(carry);
  }
  r.normalize();
  r.negative_ = neg && !r.limbs_.empty();
  return r;
}

BigInt BigInt::from_bytes_be(std::span<const std::uint8_t> bytes) {
  // Mirror of the wire encoder's magnitude writer: every full 8-byte group
  // below the (possibly partial) top group is one byte-swapped bulk load,
  // so decoding a 1024-bit value costs 16 loads, not 128 shifts.
  BigInt r;
  r.limbs_.assign((bytes.size() + 7) / 8, 0);
  const std::uint8_t* p = bytes.data() + bytes.size();
  std::size_t limb = 0;
  std::size_t full = bytes.size() / 8;
  while (full-- > 0) {
    std::uint64_t w;
    p -= 8;
    std::memcpy(&w, p, 8);
    r.limbs_[limb++] = static_cast<Limb>(__builtin_bswap64(w));
  }
  const std::size_t head = bytes.size() & 7;
  for (std::size_t i = 0; i < head; ++i) {
    r.limbs_[limb] |= static_cast<Limb>(bytes[i]) << ((head - 1 - i) * 8);
  }
  r.normalize();
  return r;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  if (negative_) out.push_back('-');
  bool started = false;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int d = static_cast<int>((limbs_[i] >> shift) & 0xF);
      if (!started && d == 0) continue;
      started = true;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  std::vector<Limb> mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    // Divide magnitude by 10^19 (largest power of ten in a limb).
    constexpr Limb kChunk = 10000000000000000000ULL;
    Limb rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | mag[i];
      mag[i] = static_cast<Limb>(cur / kChunk);
      rem = static_cast<Limb>(cur % kChunk);
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int i = 0; i < 19; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
      if (mag.empty() && rem == 0) break;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::vector<std::uint8_t> BigInt::to_bytes_be(std::size_t min_len) const {
  const std::size_t nbytes = (bit_length() + 7) / 8;
  const std::size_t len = std::max(nbytes, min_len);
  std::vector<std::uint8_t> out(len, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[len - 1 - i] = static_cast<std::uint8_t>(limbs_[i / 8] >> ((i % 8) * 8));
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::size_t top = 64 - static_cast<std::size_t>(__builtin_clzll(limbs_.back()));
  return (limbs_.size() - 1) * 64 + top;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb_idx = i / 64;
  if (limb_idx >= limbs_.size()) return false;
  return ((limbs_[limb_idx] >> (i % 64)) & 1U) != 0U;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (negative_ != o.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int c = cmp_mag(*this, o);
  const int signed_c = negative_ ? -c : c;
  if (signed_c < 0) return std::strong_ordering::less;
  if (signed_c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::vector<BigInt::Limb> BigInt::add_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<Limb> r(big.size() + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    u128 t = static_cast<u128>(big[i]) + carry;
    if (i < small.size()) t += small[i];
    r[i] = static_cast<Limb>(t);
    carry = static_cast<Limb>(t >> 64);
  }
  r[big.size()] = carry;
  while (!r.empty() && r.back() == 0) r.pop_back();
  return r;
}

std::vector<BigInt::Limb> BigInt::sub_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) {
  std::vector<Limb> r(a.size(), 0);
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb t = a[i] - bi - borrow;
    borrow = (a[i] < bi || (a[i] == bi && borrow != 0)) ? 1 : 0;
    r[i] = t;
  }
  assert(borrow == 0 && "sub_mag requires |a| >= |b|");
  while (!r.empty() && r.back() == 0) r.pop_back();
  return r;
}

std::vector<BigInt::Limb> BigInt::mul_school(std::span<const Limb> a, std::span<const Limb> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<Limb> r(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const u128 t = static_cast<u128>(ai) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    r[i + b.size()] = carry;
  }
  while (!r.empty() && r.back() == 0) r.pop_back();
  return r;
}

std::vector<BigInt::Limb> BigInt::mul_karatsuba(std::span<const Limb> a, std::span<const Limb> b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return mul_school(a, b);
  }
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto a_lo = a.subspan(0, std::min(half, a.size()));
  const auto a_hi = half < a.size() ? a.subspan(half) : std::span<const Limb>{};
  const auto b_lo = b.subspan(0, std::min(half, b.size()));
  const auto b_hi = half < b.size() ? b.subspan(half) : std::span<const Limb>{};

  BigInt alo = from_limbs({a_lo.begin(), a_lo.end()});
  BigInt ahi = from_limbs({a_hi.begin(), a_hi.end()});
  BigInt blo = from_limbs({b_lo.begin(), b_lo.end()});
  BigInt bhi = from_limbs({b_hi.begin(), b_hi.end()});

  BigInt z0 = from_limbs(mul_karatsuba(alo.limbs_, blo.limbs_));
  BigInt z2 = from_limbs(mul_karatsuba(ahi.limbs_, bhi.limbs_));
  BigInt asum = alo + ahi;
  BigInt bsum = blo + bhi;
  BigInt z1 = from_limbs(mul_karatsuba(asum.limbs_, bsum.limbs_)) - z0 - z2;

  BigInt result = (z2 << (2 * half * 64)) + (z1 << (half * 64)) + z0;
  return result.limbs_;
}

std::vector<BigInt::Limb> BigInt::mul_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) {
  return mul_karatsuba(a, b);
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt r;
  if (negative_ == o.negative_) {
    r.limbs_ = add_mag(limbs_, o.limbs_);
    r.negative_ = negative_;
  } else {
    const int c = cmp_mag(*this, o);
    if (c == 0) return BigInt{};
    if (c > 0) {
      r.limbs_ = sub_mag(limbs_, o.limbs_);
      r.negative_ = negative_;
    } else {
      r.limbs_ = sub_mag(o.limbs_, limbs_);
      r.negative_ = o.negative_;
    }
  }
  r.normalize();
  return r;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt r;
  r.limbs_ = mul_mag(limbs_, o.limbs_);
  r.negative_ = (negative_ != o.negative_) && !r.limbs_.empty();
  return r;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      r.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  r.normalize();
  return r;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt{};
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
    r.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift] : (limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      r.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  r.normalize();
  return r;
}

namespace {

// Knuth Algorithm D on 64-bit limbs. Inputs are normalized magnitudes with
// v.size() >= 2 and u >= v. Produces quotient and remainder magnitudes.
void divmod_knuth(std::vector<BigInt::Limb> u, std::vector<BigInt::Limb> v,
                  std::vector<BigInt::Limb>& q, std::vector<BigInt::Limb>& r) {
  using Limb = BigInt::Limb;
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;

  // D1: normalize so the divisor's top bit is set.
  const int shift = __builtin_clzll(v.back());
  if (shift != 0) {
    Limb carry = 0;
    for (auto& limb : v) {
      const Limb next = limb >> (64 - shift);
      limb = (limb << shift) | carry;
      carry = next;
    }
    carry = 0;
    for (auto& limb : u) {
      const Limb next = limb >> (64 - shift);
      limb = (limb << shift) | carry;
      carry = next;
    }
    u.push_back(carry);
  } else {
    u.push_back(0);
  }

  q.assign(m + 1, 0);
  const Limb v1 = v[n - 1];
  const Limb v2 = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top three dividend limbs.
    const u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top / v1;
    u128 rhat = top % v1;
    while (qhat > ~static_cast<Limb>(0) ||
           qhat * v2 > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat > ~static_cast<Limb>(0)) break;
    }

    // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 prod = qhat * v[i] + carry;
      carry = prod >> 64;
      const Limb sub = static_cast<Limb>(prod);
      const u128 diff = static_cast<u128>(u[j + i]) - sub - borrow;
      u[j + i] = static_cast<Limb>(diff);
      borrow = (diff >> 64) & 1U;
    }
    const u128 diff = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<Limb>(diff);
    const bool negative = ((diff >> 64) & 1U) != 0U;

    // D5/D6: add back when the estimate was one too large.
    if (negative) {
      --qhat;
      Limb c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[j + i]) + v[i] + c;
        u[j + i] = static_cast<Limb>(sum);
        c = static_cast<Limb>(sum >> 64);
      }
      u[j + n] += c;
    }
    q[j] = static_cast<Limb>(qhat);
  }

  // D8: denormalize the remainder.
  r.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      r[i] >>= shift;
      if (i + 1 < n) r[i] |= r[i + 1] << (64 - shift);
      else r[i] |= (u[n] << (64 - shift));
    }
  }
  while (!q.empty() && q.back() == 0) q.pop_back();
  while (!r.empty() && r.back() == 0) r.pop_back();
}

}  // namespace

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  if (b.is_zero()) throw std::domain_error("BigInt: division by zero");
  const int c = cmp_mag(a, b);
  if (c < 0) {
    r = a;
    q = BigInt{};
    return;
  }
  BigInt quotient;
  BigInt remainder;
  if (b.limbs_.size() == 1) {
    const Limb d = b.limbs_[0];
    quotient.limbs_.assign(a.limbs_.size(), 0);
    Limb rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | a.limbs_[i];
      quotient.limbs_[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    if (rem != 0) remainder.limbs_.push_back(rem);
  } else {
    divmod_knuth(a.limbs_, b.limbs_, quotient.limbs_, remainder.limbs_);
  }
  quotient.normalize();
  remainder.normalize();
  quotient.negative_ = (a.negative_ != b.negative_) && !quotient.limbs_.empty();
  remainder.negative_ = a.negative_ && !remainder.limbs_.empty();
  q = std::move(quotient);
  r = std::move(remainder);
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q;
  BigInt r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q;
  BigInt r;
  divmod(*this, o, q, r);
  return r;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m.is_zero()) throw std::domain_error("BigInt::mod: zero modulus");
  BigInt r = *this % m;
  if (r.negative()) r += m.abs();
  return r;
}

namespace {

// ---------------------------------------------------------------------------
// Binary GCD core (Pornin, "Optimized Binary GCD for Modular Inversion",
// IACR ePrint 2020/972). Each outer round runs kRoundSteps binary-GCD steps
// on 64-bit approximations of a and b (the low kRoundSteps bits plus the top
// 33 bits of the pair's common length; exact once both fit in one limb),
// records them as a 2x2 matrix (f0 g0; f1 g1), and applies that matrix to
// the full-width values in one pass. Every step halves an even value or
// subtracts b from an odd a, so the exact low bits decide every parity and
// only the approximate comparison can pick the "wrong" subtraction; that
// costs a negation, never correctness. Variable-time.
// ---------------------------------------------------------------------------

using Limb = BigInt::Limb;
using i128 = __int128;

constexpr int kRoundSteps = 31;
constexpr Limb kLowMask = (Limb{1} << kRoundSteps) - 1;

// m^{-1} mod 2^64 for odd m (Newton: each step doubles the correct bits).
Limb inv_mod_2_64(Limb m) {
  Limb x = m;  // correct to 3 bits: m*m == 1 (mod 8)
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x;
}

// The 64-bit approximation of x over a pair whose longer value has `bits`
// bits: x mod 2^31 plus 2^31 times x's top 33 bits of those `bits`.
Limb approx(const Limb* x, std::size_t len, std::size_t bits) {
  if (bits <= 64) return x[0];
  const std::size_t pos = bits - 33;
  const std::size_t li = pos / 64;
  const unsigned sh = pos % 64;
  Limb top = x[li] >> sh;
  if (sh != 0 && li + 1 < len) top |= x[li + 1] << (64 - sh);
  return (x[0] & kLowMask) | (top << kRoundSteps);
}

// (x, y) <- ((x*f0 + y*g0 + m*q0) / 2^31, (x*f1 + y*g1 + m*q1) / 2^31) in
// place over n limbs, one pass. With kMod, q0 and q1 in [0, 2^31) are chosen
// so the low 31 bits vanish (a Montgomery-style clear); without it the
// division is exact by construction. Returns each result's signed word above
// limb n-1.
template <bool kMod>
std::pair<std::int64_t, std::int64_t> apply_matrix(Limb* x, Limb* y, const Limb* m,
                                                   std::size_t n, std::int64_t f0,
                                                   std::int64_t g0, std::int64_t f1,
                                                   std::int64_t g1, Limb m0inv) {
  i128 cx = static_cast<i128>(x[0]) * f0 + static_cast<i128>(y[0]) * g0;
  i128 cy = static_cast<i128>(x[0]) * f1 + static_cast<i128>(y[0]) * g1;
  Limb q0 = 0;
  Limb q1 = 0;
  if constexpr (kMod) {
    q0 = (-static_cast<Limb>(cx) * m0inv) & kLowMask;
    q1 = (-static_cast<Limb>(cy) * m0inv) & kLowMask;
    cx += static_cast<i128>(static_cast<u128>(m[0]) * q0);
    cy += static_cast<i128>(static_cast<u128>(m[0]) * q1);
  }
  Limb lx = static_cast<Limb>(cx);
  Limb ly = static_cast<Limb>(cy);
  cx >>= 64;
  cy >>= 64;
  for (std::size_t i = 1; i < n; ++i) {
    cx += static_cast<i128>(x[i]) * f0 + static_cast<i128>(y[i]) * g0;
    cy += static_cast<i128>(x[i]) * f1 + static_cast<i128>(y[i]) * g1;
    if constexpr (kMod) {
      cx += static_cast<i128>(static_cast<u128>(m[i]) * q0);
      cy += static_cast<i128>(static_cast<u128>(m[i]) * q1);
    }
    const Limb wx = static_cast<Limb>(cx);
    const Limb wy = static_cast<Limb>(cy);
    cx >>= 64;
    cy >>= 64;
    x[i - 1] = (lx >> kRoundSteps) | (wx << (64 - kRoundSteps));
    y[i - 1] = (ly >> kRoundSteps) | (wy << (64 - kRoundSteps));
    lx = wx;
    ly = wy;
  }
  x[n - 1] = (lx >> kRoundSteps) | (static_cast<Limb>(cx) << (64 - kRoundSteps));
  y[n - 1] = (ly >> kRoundSteps) | (static_cast<Limb>(cy) << (64 - kRoundSteps));
  return {static_cast<std::int64_t>(cx >> kRoundSteps),
          static_cast<std::int64_t>(cy >> kRoundSteps)};
}

// x <- 2^(64n) - x: the magnitude of a result whose top word came out -1.
void negate(Limb* x, std::size_t n) {
  Limb carry = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb t = ~x[i] + carry;
    carry = t < carry ? 1 : 0;
    x[i] = t;
  }
}

// Brings x + top*2^(64n), known to lie in (-m, 2m), into [0, m).
void normalize_mod(Limb* x, std::int64_t top, const Limb* m, std::size_t n) {
  if (top < 0) {
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 t = static_cast<u128>(x[i]) + m[i] + carry;
      x[i] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    return;
  }
  if (top == 0) {
    for (std::size_t i = n; i-- > 0;) {
      if (x[i] != m[i]) {
        if (x[i] < m[i]) return;
        break;
      }
    }
  }
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 t = static_cast<u128>(x[i]) - m[i] - borrow;
    x[i] = static_cast<Limb>(t);
    borrow = static_cast<Limb>(t >> 64) & 1U;
  }
}

// For odd m and any magnitude x: returns whether gcd(x, m) == 1. `g`, when
// set, receives gcd(x, m); `inv`, when set and the gcd is 1, receives
// x^{-1} mod m. Works in place on fixed buffers (stack up to the Residue
// inline width); the only heap allocations are the BigInt results.
bool binary_gcd(std::span<const Limb> x, std::span<const Limb> m, BigInt* g, BigInt* inv) {
  const std::size_t k = m.size();
  std::size_t len = std::max(x.size(), k);
  const std::size_t need = 2 * len + (inv != nullptr ? 2 * k : 0);
  std::array<Limb, 4 * Residue::kInlineLimbs> stack;
  std::vector<Limb> heap;
  Limb* a = stack.data();
  if (need > stack.size()) {
    heap.resize(need);
    a = heap.data();
  }
  Limb* b = a + len;
  Limb* u = b + len;
  Limb* v = u + k;
  std::fill(a, a + need, Limb{0});
  std::copy(x.begin(), x.end(), a);
  std::copy(m.begin(), m.end(), b);
  // Invariant: a == u*x and b == v*x (mod m).
  if (inv != nullptr) u[0] = 1;
  const Limb m0inv = inv_mod_2_64(m[0]);

  while (std::any_of(a, a + len, [](Limb l) { return l != 0; })) {
    while (len > 1 && a[len - 1] == 0 && b[len - 1] == 0) --len;
    const Limb top = a[len - 1] | b[len - 1];
    const std::size_t bits = 64 * len - static_cast<std::size_t>(__builtin_clzll(top));
    Limb ab = approx(a, len, bits);
    Limb bb = approx(b, len, bits);
    std::int64_t f0 = 1, g0 = 0, f1 = 0, g1 = 1;
    // Branch-free steps: the parity and comparison outcomes are
    // unpredictable, so masks beat branches here (not for constant time).
    for (int i = 0; i < kRoundSteps; ++i) {
      const Limb odd = Limb{0} - (ab & 1U);
      const Limb swap = odd & (Limb{0} - static_cast<Limb>(ab < bb));
      const auto sodd = static_cast<std::int64_t>(odd);
      const auto sswap = static_cast<std::int64_t>(swap);
      const Limb t = (ab ^ bb) & swap;
      ab ^= t;
      bb ^= t;
      const std::int64_t tf = (f0 ^ f1) & sswap;
      f0 ^= tf;
      f1 ^= tf;
      const std::int64_t tg = (g0 ^ g1) & sswap;
      g0 ^= tg;
      g1 ^= tg;
      ab = (ab - (bb & odd)) >> 1;
      f0 -= f1 & sodd;
      g0 -= g1 & sodd;
      f1 += f1;  // f1, g1 track b's scale relative to the halved a
      g1 += g1;
    }
    const auto [ta, tb] = apply_matrix<false>(a, b, nullptr, len, f0, g0, f1, g1, 0);
    if (ta < 0) {
      negate(a, len);
      f0 = -f0;
      g0 = -g0;
    }
    if (tb < 0) {
      negate(b, len);
      f1 = -f1;
      g1 = -g1;
    }
    if (inv != nullptr) {
      const auto [tu, tv] = apply_matrix<true>(u, v, m.data(), k, f0, g0, f1, g1, m0inv);
      normalize_mod(u, tu, m.data(), k);
      normalize_mod(v, tv, m.data(), k);
    }
  }
  const bool unit = b[0] == 1 && std::all_of(b + 1, b + len, [](Limb l) { return l == 0; });
  if (g != nullptr) *g = BigInt::from_limbs(b, len);
  if (inv != nullptr && unit) *inv = BigInt::from_limbs(v, k);
  return unit;
}

std::size_t trailing_zeros(const BigInt& x) {
  std::size_t i = 0;
  while (x.limb(i) == 0) ++i;
  return 64 * i + static_cast<std::size_t>(__builtin_ctzll(x.limb(i)));
}

}  // namespace

BigInt gcd(const BigInt& a, const BigInt& b) {
  if (a.is_zero()) return b.abs();
  if (b.is_zero()) return a.abs();
  const std::size_t shift = std::min(trailing_zeros(a), trailing_zeros(b));
  if (shift != 0) return gcd(a >> shift, b >> shift) << shift;
  const BigInt& odd = a.is_odd() ? a : b;
  const BigInt& other = a.is_odd() ? b : a;
  BigInt g;
  binary_gcd(other.limbs(), odd.limbs(), &g, nullptr);
  return g;
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt{0}) throw std::domain_error("mod_inverse: modulus must be positive");
  if (m.is_even()) {
    // Through the odd side: y = m^{-1} mod a gives m*y - 1 == a*t, so
    // a*(-t) == 1 (mod m). An even a shares the factor 2 with m.
    const BigInt x = a.mod(m);
    if (x.is_even()) throw std::domain_error("mod_inverse: not invertible");
    const BigInt y = mod_inverse(m, x);
    return (m - (m * y - BigInt{1}) / x).mod(m);
  }
  BigInt inv;
  const bool unit =
      a.negative() ? binary_gcd(a.mod(m).limbs(), m.limbs(), nullptr, &inv)
                   : binary_gcd(a.limbs(), m.limbs(), nullptr, &inv);
  if (!unit) throw std::domain_error("mod_inverse: not invertible");
  return inv;
}

BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod(m);
}

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

}  // namespace idgka::mpint
