#include "ec/curve.h"

#include <array>
#include <stdexcept>

#include "mpint/prime.h"

namespace idgka::ec {

Curve::Curve(std::string name, BigInt p, BigInt a, BigInt b, Point g, BigInt n, BigInt h)
    : name_(std::move(name)),
      p_(std::move(p)),
      a_(std::move(a)),
      b_(std::move(b)),
      g_(std::move(g)),
      n_(std::move(n)),
      h_(std::move(h)),
      fctx_(p_),
      a_r_(fctx_.to_residue(a_)),
      b_r_(fctx_.to_residue(b_)) {
  if (!is_on_curve(g_)) throw std::invalid_argument("Curve: generator not on curve");
}

// All point arithmetic below runs in fctx_'s residue domain (Montgomery form
// for the odd field primes): a Jacobian coordinate is converted once at the
// affine boundary and every field operation in between is a raw limb kernel
// — adds/subs with one conditional modulus correction, mont_mul/mont_sqr for
// products — with no division-based reduction and no heap traffic.
using mpint::Residue;

bool Curve::is_on_curve(const Point& pt) const {
  if (pt.infinity) return true;
  const Residue x = fctx_.to_residue(pt.x);
  const Residue y = fctx_.to_residue(pt.y);
  Residue lhs;
  fctx_.sqr(y, lhs);  // y^2
  Residue rhs;
  fctx_.sqr(x, rhs);
  fctx_.mul(rhs, x, rhs);  // x^3
  Residue t;
  fctx_.mul(a_r_, x, t);
  fctx_.add(rhs, t, rhs);
  fctx_.add(rhs, b_r_, rhs);  // x^3 + a*x + b
  return lhs == rhs;
}

Point Curve::neg(const Point& pt) const {
  if (pt.infinity) return pt;
  return Point{pt.x, pt.y.is_zero() ? BigInt{} : p_ - pt.y, false};
}

Curve::Jac Curve::jac_inf() const {
  return Jac{fctx_.one_residue(), fctx_.one_residue(), Residue(fctx_)};
}

Curve::Jac Curve::to_jac(const Point& pt) const {
  if (pt.infinity) return jac_inf();
  return Jac{fctx_.to_residue(pt.x), fctx_.to_residue(pt.y), fctx_.one_residue()};
}

Point Curve::from_jac(const Jac& j) const {
  if (j.z.is_zero()) return Point::at_infinity();
  const Residue z_inv = fctx_.to_residue(fctx_.inv(fctx_.from_residue(j.z)));
  Residue z2;
  fctx_.sqr(z_inv, z2);
  Residue x;
  fctx_.mul(j.x, z2, x);
  Residue y;
  fctx_.mul(z2, z_inv, y);  // z^-3
  fctx_.mul(j.y, y, y);
  return Point{fctx_.from_residue(x), fctx_.from_residue(y), false};
}

Curve::Jac Curve::jac_dbl(const Jac& p1) const {
  if (p1.z.is_zero() || p1.y.is_zero()) return jac_inf();
  // dbl-2007-bl style (general a).
  Residue xx, yy, yyyy, zz, s, m, t, u;
  fctx_.sqr(p1.x, xx);
  fctx_.sqr(p1.y, yy);
  fctx_.sqr(yy, yyyy);
  fctx_.sqr(p1.z, zz);
  // S = 2*((X+YY)^2 - XX - YYYY)
  fctx_.add(p1.x, yy, t);
  fctx_.sqr(t, t);
  fctx_.sub(t, xx, s);
  fctx_.sub(s, yyyy, s);
  fctx_.add(s, s, s);
  // M = 3*XX + a*ZZ^2
  fctx_.add(xx, xx, m);
  fctx_.add(m, xx, m);
  fctx_.sqr(zz, t);
  fctx_.mul(a_r_, t, t);
  fctx_.add(m, t, m);
  // X3 = M^2 - 2*S
  Jac out;
  fctx_.sqr(m, out.x);
  fctx_.add(s, s, t);
  fctx_.sub(out.x, t, out.x);
  // Y3 = M*(S - X3) - 8*YYYY
  fctx_.sub(s, out.x, t);
  fctx_.mul(m, t, t);
  fctx_.add(yyyy, yyyy, u);
  fctx_.add(u, u, u);
  fctx_.add(u, u, u);
  fctx_.sub(t, u, out.y);
  // Z3 = (Y+Z)^2 - YY - ZZ
  fctx_.add(p1.y, p1.z, u);
  fctx_.sqr(u, u);
  fctx_.sub(u, yy, u);
  fctx_.sub(u, zz, out.z);
  return out;
}

Curve::Jac Curve::jac_add(const Jac& p1, const Jac& p2) const {
  if (p1.z.is_zero()) return p2;
  if (p2.z.is_zero()) return p1;
  Residue z1z1, z2z2, u1, u2, s1, s2, t;
  fctx_.sqr(p1.z, z1z1);
  fctx_.sqr(p2.z, z2z2);
  fctx_.mul(p1.x, z2z2, u1);
  fctx_.mul(p2.x, z1z1, u2);
  fctx_.mul(p2.z, z2z2, s1);
  fctx_.mul(p1.y, s1, s1);
  fctx_.mul(p1.z, z1z1, s2);
  fctx_.mul(p2.y, s2, s2);
  if (u1 == u2) {
    if (s1 == s2) return jac_dbl(p1);
    return jac_inf();  // P + (-P) = O
  }
  Residue h, i, j, r, v;
  fctx_.sub(u2, u1, h);
  fctx_.add(h, h, i);
  fctx_.sqr(i, i);  // I = (2H)^2
  fctx_.mul(h, i, j);
  fctx_.sub(s2, s1, r);
  fctx_.add(r, r, r);
  fctx_.mul(u1, i, v);
  // X3 = R^2 - J - 2*V
  Jac out;
  fctx_.sqr(r, out.x);
  fctx_.sub(out.x, j, out.x);
  fctx_.add(v, v, t);
  fctx_.sub(out.x, t, out.x);
  // Y3 = R*(V - X3) - 2*S1*J
  fctx_.sub(v, out.x, t);
  fctx_.mul(r, t, t);
  fctx_.mul(s1, j, v);
  fctx_.add(v, v, v);
  fctx_.sub(t, v, out.y);
  // Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) * H
  fctx_.add(p1.z, p2.z, t);
  fctx_.sqr(t, t);
  fctx_.sub(t, z1z1, t);
  fctx_.sub(t, z2z2, t);
  fctx_.mul(t, h, out.z);
  return out;
}

Point Curve::add(const Point& p1, const Point& p2) const {
  return from_jac(jac_add(to_jac(p1), to_jac(p2)));
}

Point Curve::dbl(const Point& pt) const { return from_jac(jac_dbl(to_jac(pt))); }

Point Curve::mul(const BigInt& k_in, const Point& pt) const {
  return mul_raw(k_in.mod(n_), pt);
}

Point Curve::mul_raw(const BigInt& k_in, const Point& pt) const {
  BigInt k = k_in;
  if (k.negative()) return mul_raw(-k, neg(pt));
  if (k.is_zero() || pt.infinity) return Point::at_infinity();

  // 4-bit window over Jacobian coordinates.
  const Jac base = to_jac(pt);
  std::array<Jac, 16> table;
  table[0] = jac_inf();
  table[1] = base;
  for (std::size_t i = 2; i < 16; ++i) table[i] = jac_add(table[i - 1], base);

  Jac acc = jac_inf();
  const std::size_t windows = (k.bit_length() + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    acc = jac_dbl(acc);
    acc = jac_dbl(acc);
    acc = jac_dbl(acc);
    acc = jac_dbl(acc);
    std::size_t digit = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      if (k.bit(w * 4 + b)) digit |= 1ULL << b;
    }
    if (digit != 0) acc = jac_add(acc, table[digit]);
  }
  return from_jac(acc);
}

Point Curve::mul_add(const BigInt& k1, const BigInt& k2, const Point& q) const {
  // Shamir's trick: simultaneous ladder over G and Q.
  const Jac jg = to_jac(g_);
  const Jac jq = to_jac(q);
  const Jac jgq = jac_add(jg, jq);
  const BigInt a = k1.mod(n_);
  const BigInt b = k2.mod(n_);
  const std::size_t bits = std::max(a.bit_length(), b.bit_length());
  Jac acc = jac_inf();
  for (std::size_t i = bits; i-- > 0;) {
    acc = jac_dbl(acc);
    const bool ba = a.bit(i);
    const bool bb = b.bit(i);
    if (ba && bb) acc = jac_add(acc, jgq);
    else if (ba) acc = jac_add(acc, jg);
    else if (bb) acc = jac_add(acc, jq);
  }
  return from_jac(acc);
}

const Curve& secp160r1() {
  static const Curve curve = [] {
    const BigInt p = BigInt::from_hex("ffffffffffffffffffffffffffffffff7fffffff");
    const BigInt a = p - BigInt{3};
    const BigInt b = BigInt::from_hex("1c97befc54bd7a8b65acf89f81d4d4adc565fa45");
    const Point g{BigInt::from_hex("4a96b5688ef573284664698968c38bb913cbfc82"),
                  BigInt::from_hex("23a628553168947d59dcc912042351377ac5fb32"), false};
    const BigInt n = BigInt::from_hex("0100000000000000000001f4c8f927aed3ca752257");
    return Curve("secp160r1", p, a, b, g, n, BigInt{1});
  }();
  return curve;
}

const Curve& p256() {
  static const Curve curve = [] {
    const BigInt p = BigInt::from_hex(
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    const BigInt a = p - BigInt{3};
    const BigInt b = BigInt::from_hex(
        "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
    const Point g{BigInt::from_hex(
                      "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
                  BigInt::from_hex(
                      "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
                  false};
    const BigInt n = BigInt::from_hex(
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
    return Curve("P-256", p, a, b, g, n, BigInt{1});
  }();
  return curve;
}

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
      const int chi = mpint::jacobi(BigInt{rhs}, p);
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

}  // namespace idgka::ec
