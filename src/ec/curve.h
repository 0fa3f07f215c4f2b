// Short-Weierstrass elliptic curve arithmetic over prime fields.
//
// Substrate for the certificate-based ECDSA baseline ("BD with ECDSA") that
// the paper compares against. Points are affine externally; scalar
// multiplication runs on Jacobian coordinates internally with a 4-bit window.
#pragma once

#include <optional>
#include <string>

#include "mpint/bigint.h"
#include "mpint/mod_context.h"
#include "mpint/random.h"
#include "mpint/residue.h"

namespace idgka::ec {

using mpint::BigInt;

/// Affine point; infinity is represented by `infinity == true`.
struct Point {
  BigInt x;
  BigInt y;
  bool infinity = false;

  [[nodiscard]] static Point at_infinity() { return Point{{}, {}, true}; }
  bool operator==(const Point& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

/// y^2 = x^3 + a*x + b over F_p with base point G of prime order n and
/// cofactor h.
class Curve {
 public:
  Curve(std::string name, BigInt p, BigInt a, BigInt b, Point g, BigInt n, BigInt h);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const BigInt& p() const { return p_; }
  [[nodiscard]] const BigInt& a() const { return a_; }
  [[nodiscard]] const BigInt& b() const { return b_; }
  [[nodiscard]] const Point& generator() const { return g_; }
  [[nodiscard]] const BigInt& order() const { return n_; }
  [[nodiscard]] const BigInt& cofactor() const { return h_; }
  /// Field element byte width.
  [[nodiscard]] std::size_t field_bytes() const { return (p_.bit_length() + 7) / 8; }
  /// Cached modular context for the base field F_p. All Jacobian ladder
  /// arithmetic runs in its residue domain (Montgomery form for the odd
  /// field primes): coordinates convert once per point operation at the
  /// affine boundary, and every field add/sub/mul/sqr in between is a raw
  /// limb kernel — no division-based reduction, no heap traffic.
  [[nodiscard]] const mpint::ModContext& field() const { return fctx_; }

  /// Is `pt` on the curve (infinity counts as on-curve)?
  [[nodiscard]] bool is_on_curve(const Point& pt) const;

  /// Point addition (complete for distinct/equal/infinity operands).
  [[nodiscard]] Point add(const Point& p1, const Point& p2) const;
  /// Additive inverse.
  [[nodiscard]] Point neg(const Point& pt) const;
  /// Scalar multiplication k*P, k any sign (negative k uses -P).
  /// The scalar is reduced modulo the group order first.
  [[nodiscard]] Point mul(const BigInt& k, const Point& pt) const;
  /// Scalar multiplication without order reduction (for points whose order
  /// is not n, e.g. cofactor clearing in MapToPoint).
  [[nodiscard]] Point mul_raw(const BigInt& k, const Point& pt) const;
  /// k1*G + k2*Q via interleaved ladder (ECDSA verification shape).
  [[nodiscard]] Point mul_add(const BigInt& k1, const BigInt& k2, const Point& q) const;

 private:
  // Jacobian coordinates (X, Y, Z): x = X/Z^2, y = Y/Z^3; infinity Z == 0.
  // Coordinates live in fctx_'s residue domain for the whole ladder.
  struct Jac {
    mpint::Residue x;
    mpint::Residue y;
    mpint::Residue z;
  };
  [[nodiscard]] Jac jac_inf() const;
  [[nodiscard]] Jac to_jac(const Point& pt) const;
  [[nodiscard]] Point from_jac(const Jac& j) const;
  [[nodiscard]] Jac jac_dbl(const Jac& p1) const;
  [[nodiscard]] Jac jac_add(const Jac& p1, const Jac& p2) const;

  std::string name_;
  BigInt p_, a_, b_;
  Point g_;
  BigInt n_, h_;
  mpint::ModContext fctx_;  // per-curve field context (Montgomery constants)
  mpint::Residue a_r_, b_r_;  // curve coefficients in the residue domain
};

/// Named curves used by the benchmarks and baselines.
/// SEC 2 secp160r1 — the paper's "160-bit ECDSA".
[[nodiscard]] const Curve& secp160r1();
/// NIST P-256 — a modern reference point for the ablation benches.
[[nodiscard]] const Curve& p256();

}  // namespace idgka::ec
