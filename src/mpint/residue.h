// Residue — fixed-width limb storage for one modular-arithmetic operand.
//
// A Residue is the in-domain representation used by ModContext's hot paths:
// it holds the Montgomery form a*R mod n. Its storage is a fixed-capacity
// inline limb array sized at construction from the owning context's limb
// count, so every arithmetic step (mont_mul, mont_sqr, exp ladders, comb
// walks) runs without touching the heap; moduli wider than kInlineLimbs
// (2048 bits) spill to a single heap block allocated once at construction,
// never per operation.
//
// Residues are plain value types: copy/move/compare work limb-wise, and a
// Residue is only meaningful with the ModContext that produced it (the
// context checks the limb count and trusts the caller on modulus identity,
// matching the FixedBaseTable contract). Conversions happen exactly once at
// the domain boundary — ModContext::to_residue / from_residue — and all
// in-domain operations (ModContext::mul/sqr/exp over Residue&) are
// aliasing-safe: `ctx.mul(r, r, r)` squares in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>

#include "mpint/bigint.h"

namespace idgka::mpint {

class ModContext;

/// Fixed-capacity modular residue; see file comment for the domain contract.
class Residue {
 public:
  using Limb = BigInt::Limb;
  /// Widest modulus (in limbs) stored inline: 2048 bits. Wider moduli take
  /// one heap block at construction and stay allocation-free afterwards.
  static constexpr std::size_t kInlineLimbs = 32;

  /// Empty residue (size 0); assign from a sized one before use.
  Residue() = default;

  /// Zero-valued residue sized for `ctx` (ctx.limb_count() limbs).
  explicit Residue(const ModContext& ctx);

  Residue(const Residue& o) { assign(o.limbs(), o.k_); }
  Residue& operator=(const Residue& o) {
    if (this != &o) assign(o.limbs(), o.k_);
    return *this;
  }
  Residue(Residue&& o) noexcept = default;
  Residue& operator=(Residue&& o) noexcept = default;

  /// Limb count (the owning context's modulus width); 0 when empty.
  [[nodiscard]] std::size_t size() const { return k_; }
  [[nodiscard]] bool empty() const { return k_ == 0; }

  /// Raw little-endian limbs; exactly size() limbs are meaningful.
  [[nodiscard]] Limb* limbs() { return heap_ ? heap_.get() : inline_.data(); }
  [[nodiscard]] const Limb* limbs() const {
    return heap_ ? heap_.get() : inline_.data();
  }

  /// Does this residue represent 0? (Zero is its own Montgomery form.)
  [[nodiscard]] bool is_zero() const {
    for (std::size_t i = 0; i < k_; ++i) {
      if (limbs()[i] != 0) return false;
    }
    return true;
  }

  /// Limb-wise equality: two residues of one context compare equal iff they
  /// represent the same element (the Montgomery form is canonical in [0, n)).
  bool operator==(const Residue& o) const {
    return k_ == o.k_ && std::memcmp(limbs(), o.limbs(), k_ * sizeof(Limb)) == 0;
  }

 private:
  friend class ModContext;

  /// (Re)sizes to `k` limbs, zero-filled. Allocates only when k exceeds the
  /// inline capacity — and then only once per growth, never per operation.
  void resize(std::size_t k) {
    if (k > kInlineLimbs && (heap_ == nullptr || k > k_)) {
      heap_ = std::make_unique<Limb[]>(k);
    }
    k_ = k;
    std::memset(limbs(), 0, k_ * sizeof(Limb));
  }

  void assign(const Limb* src, std::size_t k) {
    if (k > kInlineLimbs && (heap_ == nullptr || k > k_)) {
      heap_ = std::make_unique<Limb[]>(k);
    }
    k_ = k;
    std::memcpy(limbs(), src, k_ * sizeof(Limb));
  }

  std::size_t k_ = 0;
  std::array<Limb, kInlineLimbs> inline_{};
  std::unique_ptr<Limb[]> heap_;  // engaged only for > kInlineLimbs moduli
};

}  // namespace idgka::mpint
