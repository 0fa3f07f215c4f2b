// Quadratic extension field F_p^2 = F_p[i] / (i^2 + 1) for p % 4 == 3.
//
// The modified Tate pairing on the supersingular curve y^2 = x^3 + x takes
// values in F_p^2; the distortion map phi(x, y) = (-x, i*y) moves the second
// pairing argument into the twist. p % 4 == 3 guarantees -1 is a
// non-residue, so the polynomial i^2 + 1 is irreducible.
#pragma once

#include "mpint/bigint.h"
#include "mpint/mod_context.h"

namespace idgka::pairing {

using mpint::BigInt;

/// Element re + im*i of F_p^2.
struct Fp2 {
  BigInt re;
  BigInt im;
  bool operator==(const Fp2& o) const = default;
  [[nodiscard]] bool is_one() const { return re.is_one() && im.is_zero(); }
  [[nodiscard]] bool is_zero() const { return re.is_zero() && im.is_zero(); }
};

/// Arithmetic context bound to a fixed prime p (p % 4 == 3).
class Fp2Ctx {
 public:
  explicit Fp2Ctx(BigInt p);

  [[nodiscard]] const BigInt& p() const { return p_; }
  /// Cached modular context for the base field F_p — the seam for callers
  /// doing exponentiation-shaped F_p work next to the pairing. Derived once
  /// per group; single field multiplies stay on schoolbook mul + reduce,
  /// which measures faster than a Montgomery round trip at these sizes.
  [[nodiscard]] const mpint::ModContext& fp() const { return fctx_; }

  [[nodiscard]] Fp2 one() const { return Fp2{BigInt{1}, BigInt{}}; }

  [[nodiscard]] Fp2 mul(const Fp2& a, const Fp2& b) const;
  [[nodiscard]] Fp2 sqr(const Fp2& a) const;
  [[nodiscard]] Fp2 conj(const Fp2& a) const;
  /// Multiplicative inverse; throws std::domain_error on zero.
  [[nodiscard]] Fp2 inv(const Fp2& a) const;
  /// a^e for e >= 0 (square-and-multiply).
  [[nodiscard]] Fp2 pow(const Fp2& a, const BigInt& e) const;
  /// Frobenius a^p = conj(a) in this representation.
  [[nodiscard]] Fp2 frobenius(const Fp2& a) const { return conj(a); }

 private:
  [[nodiscard]] BigInt fadd(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt fsub(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt fmul(const BigInt& a, const BigInt& b) const;

  BigInt p_;
  mpint::ModContext fctx_;  // per-field context (Montgomery constants)
};

}  // namespace idgka::pairing
