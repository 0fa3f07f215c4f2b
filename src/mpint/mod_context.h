// ModContext — the one modular-arithmetic API.
//
// Every protocol in the repository (BD, ING, SSN, the proposed GKA, GQ/DSA
// signatures, EC field arithmetic, the pairing field) bottoms out in modular
// multiplication and exponentiation over an odd modulus: the Schnorr prime
// p, the GQ RSA modulus n, or a prime field. A ModContext is an immutable
// per-modulus object that derives the Montgomery constants (n', R^2, limb
// count) exactly once and exposes:
//
//   * mul/exp/inv over BigInt, with a sliding window (4 bits below 512-bit
//     moduli, 5 above, narrowed for short exponents) running entirely in
//     the Montgomery domain;
//   * a residue-domain API (to_residue/from_residue plus mul/sqr/exp over
//     Residue operands) for callers that chain many operations: one
//     conversion in and one out per chain, fixed-width limb storage, and a
//     heap-allocation-free steady state — working sets come from a
//     thread-local limb arena, operands from the Residue's inline array;
//   * a dedicated squaring kernel that every exponentiation ladder uses for
//     its squaring chain, at ~3/4 the low-level multiply count of the
//     general product;
//   * a fixed-base comb table (make_fixed_base / exp overload) for the
//     repeated-generator case — the GKA hot path, where every member
//     exponentiates the same g — trading 64 precomputed entries for ~6-fold
//     fewer multiplications per call.
//
// Callers (gka::SystemParams, sig::GqPkg, ec::Curve, pairing::Fp2Ctx,
// pki::CertificateAuthority) construct one context per long-lived modulus
// and thread `const ModContext&` down; construction is O(size^2).
//
// Every operation bottoms out in one Montgomery multiply and one square
// kernel (mpint/mont_kernels.h), picked once in the constructor from the
// limb count and the CPU: on x86-64 with BMI2, moduli of 3 and 16 limbs
// (192 and 1024 bits, the kTiny and kPaper profiles) get fixed-width mulx
// product-scanning kernels; every other width, and every other host, the
// portable runtime-width loops. Both pairs produce identical limbs, so
// keys, counters and metrics do not depend on the choice; kernel() names
// it. There is no switch: CPUID alone decides.
//
// The layer also keeps process-wide operation counters (exponentiations,
// low-level modular multiplications and — separately — modular squarings,
// folded in once per public call) so the simulation metrics can separate
// crypto cost from event-loop cost and attribute the squaring-kernel
// discount. Totals are order-independent sums and therefore deterministic
// under multithreaded protocol runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpint/bigint.h"
#include "mpint/residue.h"

namespace idgka::mpint {

/// Process-wide crypto work counters (monotonic totals; take two snapshots
/// and subtract to attribute work to a region).
struct OpCounts {
  std::uint64_t exps = 0;        ///< public exponentiation calls
  std::uint64_t mod_muls = 0;    ///< low-level general modular multiplications
  std::uint64_t mod_sqrs = 0;    ///< low-level modular squarings (dedicated kernel)
  std::uint64_t multi_exps = 0;  ///< public joint multi-exponentiation calls
};

/// Snapshot of the process-wide counters.
[[nodiscard]] OpCounts op_counts();

class ModContext;

/// Precomputed comb table for one (context, base, exponent-width) triple.
/// Built by ModContext::make_fixed_base; consumed by the exp overload.
/// Copyable value type; its 2^kTeeth entries live in the Montgomery domain
/// of the owning context's modulus (a modulus fingerprint is kept and
/// checked on use) and are stored as one flat limb array — entry j occupies
/// limbs [j*stride, (j+1)*stride).
class FixedBaseTable {
 public:
  [[nodiscard]] const BigInt& base() const { return base_; }
  /// Widest exponent (in bits) the comb covers; wider falls back to the
  /// windowed ladder.
  [[nodiscard]] std::size_t max_exp_bits() const { return bits_; }
  [[nodiscard]] unsigned teeth() const { return kTeeth; }
  /// Memory footprint of the precomputed entries.
  [[nodiscard]] std::size_t table_bytes() const { return table_.size() * sizeof(Limb); }

 private:
  friend class ModContext;
  using Limb = BigInt::Limb;
  static constexpr unsigned kTeeth = 6;

  [[nodiscard]] const Limb* entry(std::size_t j) const { return table_.data() + j * stride_; }

  BigInt base_;
  std::vector<Limb> mod_fingerprint_;  // limbs of the modulus it was built for
  std::size_t bits_ = 0;               // exponent coverage
  std::size_t block_ = 0;              // comb block size d = ceil(bits / teeth)
  std::size_t stride_ = 0;             // limbs per entry (= modulus limb count)
  std::vector<Limb> table_;            // 2^kTeeth entries, flat, Montgomery domain
};

/// Immutable Montgomery context for one odd modulus > 1.
class ModContext {
 public:
  /// Throws std::invalid_argument unless the modulus is odd and > 1.
  explicit ModContext(BigInt modulus);

  [[nodiscard]] const BigInt& modulus() const { return n_; }
  /// Limb count of a Residue for this context (modulus width in limbs).
  [[nodiscard]] std::size_t limb_count() const { return k_; }
  /// The Montgomery kernel pair chosen at construction: "mulx" (fixed-width
  /// x86-64 BMI2 kernels) or "portable" (runtime-width loops). Read-only;
  /// the choice follows from the limb count and the CPU alone.
  [[nodiscard]] const char* kernel() const { return kernels_.name; }

  // ------------------------------------------------------------ BigInt API

  /// (a * b) mod n for any a, b (reduced internally).
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^e mod n. Negative e inverts the base first (throws
  /// std::domain_error when not invertible). Sliding window.
  [[nodiscard]] BigInt exp(const BigInt& base, const BigInt& e) const;

  /// Fixed-base exponentiation through a comb table built by
  /// make_fixed_base. Falls back to the windowed ladder when the exponent is
  /// negative or wider than the table. Throws std::invalid_argument when the
  /// table belongs to a different modulus.
  [[nodiscard]] BigInt exp(const FixedBaseTable& table, const BigInt& e) const;

  /// a^(-1) mod n through mod_inverse's binary GCD core (variable-time, not
  /// counted in op_counts()); throws std::domain_error if not invertible.
  [[nodiscard]] BigInt inv(const BigInt& a) const;

  /// Joint multi-exponentiation: prod_i bases[i]^{exps[i]} mod n, evaluated
  /// in one pass instead of |bases| independent exp() calls. Terms are split
  /// by exponent width: narrow exponents (<= 64 bits — the BD ring's small
  /// integer powers, batch-verification scalars) go through Pippenger bucket
  /// aggregation, wide ones through Shamir/Straus interleaving with shared
  /// squarings (arity <= 8) or Pippenger (wider). Zero exponents drop their
  /// term; negative exponents invert the base first (throws
  /// std::domain_error when not invertible), matching exp().
  /// Throws std::invalid_argument when the span sizes differ.
  [[nodiscard]] BigInt multi_exp(std::span<const BigInt> bases,
                                 std::span<const BigInt> exps) const;

  /// prod_i values[i] mod n. Operands stay canonical and a single R^(k-1)
  /// fix-up cancels the accumulated deficit, so a width-n product costs ~n
  /// low-level multiplications instead of the ~4n of chained mul() calls —
  /// with no per-term conversions or heap traffic regardless of width.
  [[nodiscard]] BigInt product(std::span<const BigInt> values) const;

  /// Builds a 6-tooth comb table (64 entries, ~6x fewer multiplications
  /// than the windowed ladder) for repeated exponentiation of `base` with
  /// exponents up to `max_exp_bits` bits.
  [[nodiscard]] FixedBaseTable make_fixed_base(const BigInt& base,
                                               std::size_t max_exp_bits) const;

  // ----------------------------------------------------------- Residue API
  //
  // One conversion in (to_residue) and one out (from_residue) bracket an
  // arbitrarily long chain of in-domain operations; every operation below
  // is heap-allocation-free in steady state (moduli up to
  // Residue::kInlineLimbs) and aliasing-safe — out may be a or b.

  /// Converts a (any sign/size; reduced internally) into the context's
  /// residue domain.
  [[nodiscard]] Residue to_residue(const BigInt& a) const;

  /// Converts a residue back to a canonical BigInt in [0, n).
  [[nodiscard]] BigInt from_residue(const Residue& r) const;

  /// The residue representing 1.
  [[nodiscard]] Residue one_residue() const;

  /// out = a + b in the residue domain. The Montgomery form is linear, so
  /// this is one limb addition plus at most one conditional subtraction of
  /// the modulus — no division, no allocation.
  void add(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a - b in the residue domain (limb subtraction, conditional
  /// add-back of the modulus).
  void sub(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a * b in the residue domain.
  void mul(const Residue& a, const Residue& b, Residue& out) const;

  /// out = a^2 in the residue domain, through the dedicated squaring kernel
  /// (~3/4 the limb multiplications of the general product).
  void sqr(const Residue& a, Residue& out) const;

  /// out = base^e in the residue domain. Negative e round-trips through
  /// BigInt inversion (throws std::domain_error when not invertible); e >= 0
  /// stays entirely in-domain and allocation-free.
  void exp(const Residue& base, const BigInt& e, Residue& out) const;

 private:
  using Limb = BigInt::Limb;

  /// Per-call work accumulator; public entry points fold it into the
  /// process-wide counters exactly once.
  struct Ops {
    std::uint64_t muls = 0;
    std::uint64_t sqrs = 0;
  };
  void fold(const Ops& ops) const;

  /// One Montgomery kernel pair (see mpint/mont_kernels.h): out = a*b/R or
  /// a^2/R mod n over k-limb arrays, with n0_inv = -n^{-1} mod 2^64.
  struct Kernels {
    void (*mul)(const Limb* a, const Limb* b, Limb* out, Limb* scratch, const Limb* n,
                Limb n0_inv, std::size_t k);
    void (*sqr)(const Limb* a, Limb* out, Limb* scratch, const Limb* n, Limb n0_inv,
                std::size_t k);
    const char* name;
  };
  /// The pair for a k-limb modulus on this CPU.
  static Kernels select_kernels(std::size_t k);

  // Raw Montgomery kernels: forward to the pair chosen at construction. All
  // pointers reference k_-limb little-endian magnitudes unless noted; `out`
  // may alias any input. `scratch` must hold at least 2*k_ + 2 limbs.
  void mont_mul_raw(const Limb* a, const Limb* b, Limb* out, Limb* scratch) const;
  void mont_sqr_raw(const Limb* a, Limb* out, Limb* scratch) const;
  // Loads |a| mod n into the k_-limb `out` (canonical domain, no R factor).
  void load_canonical(const BigInt& a, Limb* out) const;
  // out = canonical(a) * R mod n (the Montgomery conversion).
  void to_mont_raw(const BigInt& a, Limb* out, Limb* scratch, Ops& ops) const;
  // Canonicalizes a Montgomery-domain value back into a BigInt.
  [[nodiscard]] BigInt from_mont_raw(const Limb* a, Limb* scratch, Ops& ops) const;
  // Montgomery-domain exponentiation core: out = base^e (e >= 1), all raw.
  void exp_mont_raw(const Limb* base, const BigInt& e, Limb* out, Ops& ops) const;
  [[nodiscard]] BigInt exp_comb(const FixedBaseTable& table, const BigInt& e,
                                Ops& ops) const;
  void exp_comb_raw(const FixedBaseTable& table, const BigInt& e, Limb* out,
                    Ops& ops) const;
  // BigInt-in, BigInt-out exponentiation; negative e inverts the base first.
  [[nodiscard]] BigInt exp_any(const BigInt& base, const BigInt& e, Ops& ops) const;
  // Multi-exponentiation engines over Montgomery-domain bases. Both require
  // every term's exponent to be positive; results land in the k_-limb `out`.
  void straus_mont(std::span<const Residue* const> bases,
                   std::span<const BigInt* const> exps, Limb* out, Ops& ops) const;
  void pippenger_mont(std::span<const Residue* const> bases,
                      std::span<const BigInt* const> exps, Limb* out, Ops& ops) const;

  BigInt n_;
  unsigned window_ = 4;          // widest sliding window (narrowed per exponent)
  std::vector<Limb> n_limbs_;
  std::size_t k_ = 0;            // limb count of the modulus
  Limb n0_inv_ = 0;              // -n^{-1} mod 2^64
  std::vector<Limb> rr_limbs_;   // R^2 mod n (R = 2^(64k)), zero-padded to k_ limbs
  std::vector<Limb> one_mont_;   // R mod n (k_ limbs)
  Kernels kernels_{};
};

/// Square root modulo a prime p with p % 4 == 3, through a caller-cached
/// context for p (used by MapToPoint on the supersingular curve and by the
/// toy-curve generator). On success sets `out` and returns true.
bool sqrt_mod_p3(const ModContext& ctx, const BigInt& a, BigInt& out);

}  // namespace idgka::mpint
