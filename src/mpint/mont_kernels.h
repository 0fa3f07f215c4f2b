// Montgomery multiply and square kernels behind ModContext (internal).
//
// Every kernel is a free function over raw little-endian limb arrays:
//
//   mul(a, b, out, scratch, n, n0_inv, k)    out = a * b / R mod n
//   sqr(a, out, scratch, n, n0_inv, k)       out = a^2 / R mod n
//
// with n the k-limb odd modulus, n0_inv = -n^{-1} mod 2^64, R = 2^(64k)
// and operands below n. `out` may alias any input; `scratch` holds at
// least 2k + 2 limbs and never aliases an operand.
//
// Two families:
//
//   * Portable runtime-width loops over unsigned __int128: CIOS for the
//     product, and for the square an operand-scanning cross-product
//     triangle, one doubling pass and a separated (SOS) reduction. They
//     serve every width on every host and are the reference the fixed
//     kernels are tested against.
//   * Fixed-width product-scanning kernels (Koç, Acar and Kaliski, 1996,
//     "finely integrated product scanning") for x86-64 with BMI2, one
//     template per compile-time limb count K, fully unrolled. Each column
//     of the product and of the reduction accumulates into a 3-limb
//     accumulator through an inline-asm mulx/add/adc/adc step, so no
//     partial product is ever written to memory. The square doubles its
//     operand once, which halves the cross multiplications, and walks
//     columns in pairs that load each shared multiplier limb once.
//
// Both compute the same m = -a*b*n^{-1} mod R and the same single
// conditional subtraction, so their outputs are bit-identical. ModContext
// picks one pair in its constructor (see select_kernels in
// mod_context.cpp): the fixed kernels for K in {3, 16} when the CPU
// reports BMI2, the portable loops everywhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace idgka::mpint::detail {

using Limb = std::uint64_t;
using u128 = unsigned __int128;

// ------------------------------------------------------------- portable

/// -n^{-1} mod 2^64 via Newton iteration (n odd): the n0_inv every kernel
/// takes.
inline Limb neg_inv64(Limb n) {
  Limb x = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;
  return ~x + 1;  // -(n^{-1})
}

/// Conditional final subtraction: the reduced value is t[0..k) plus carry
/// limb `hi` (0 or 1) and lies in [0, 2n); writes the canonical
/// representative to out. `out` may alias `t`.
inline void reduce_once(const Limb* t, Limb hi, const Limb* n, std::size_t k, Limb* out) {
  bool ge = hi != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (!ge) {
    if (out != t) std::memcpy(out, t, k * sizeof(Limb));
    return;
  }
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ti = t[i];
    const Limb ni = n[i];
    out[i] = ti - ni - borrow;
    borrow = (ti < ni || (ti == ni && borrow != 0)) ? 1 : 0;
  }
}

/// CIOS (coarsely integrated operand scanning) Montgomery product.
inline void mont_mul_portable(const Limb* a, const Limb* b, Limb* out, Limb* scratch,
                              const Limb* n_in, Limb n0_inv, std::size_t k) {
  // scratch never aliases the operands and the modulus is never written, so
  // the restrict qualifiers let stores to t keep a/b/n limbs in registers.
  Limb* __restrict t = scratch;  // k + 2 limbs used
  std::memset(t, 0, (k + 2) * sizeof(Limb));
  const Limb* __restrict n = n_in;
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<Limb>(s);
    t[k + 1] = static_cast<Limb>(s >> 64);

    // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
    const Limb m = t[0] * n0_inv;
    s = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<Limb>(s >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      s = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    s = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(s);
    t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
    t[k + 1] = 0;
  }
  reduce_once(t, t[k], n, k, out);
}

/// Operand-scanning squaring: compute the off-diagonal products once,
/// double them, add the diagonal, then run a separated (SOS) Montgomery
/// reduction over the double-width result. Versus the CIOS product this
/// trades 2k^2 limb multiplications for ~1.5k^2 + k.
inline void mont_sqr_portable(const Limb* a, Limb* out, Limb* scratch, const Limb* n_in,
                              Limb n0_inv, std::size_t k) {
  Limb* __restrict t = scratch;  // 2k + 2 limbs used
  const Limb* __restrict n = n_in;

  // Off-diagonal cross products a[i]*a[j], j > i. Row 0 writes t[1 .. k-1]
  // fresh (nothing to accumulate — skipping the reads also makes the
  // full-width memset unnecessary); row i >= 1 accumulates into t[2i+1 ..
  // i+k-1], all written by earlier rows, and its final carry lands in
  // t[i+k] — untouched so far, so a plain store suffices.
  {
    const Limb a0 = a[0];
    Limb carry = 0;
    for (std::size_t j = 1; j < k; ++j) {
      const u128 s = static_cast<u128>(a0) * a[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[k] = carry;
  }
  for (std::size_t i = 1; i + 1 < k; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[i + k] = carry;
  }
  // The rows above covered t[1 .. 2k-2]; only these four were never written.
  t[0] = 0;
  t[2 * k - 1] = 0;
  t[2 * k] = 0;
  t[2 * k + 1] = 0;

  // Each cross product appears twice in the square: double the partial sum
  // (one-bit left shift — cross terms occupy t[1 .. 2k-2], so nothing
  // shifts out of t[2k-1]) and add the diagonal a[i]^2 terms, fused into a
  // single pass over even/odd limb pairs. a^2 < n^2 fits in 2k limbs, so
  // both the final shift bit and the final diagonal carry are zero.
  Limb top_bit = 0;
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Limb lo = t[2 * i];
    const Limb lo_top = lo >> 63;
    lo = (lo << 1) | top_bit;
    Limb hi = t[2 * i + 1];
    top_bit = hi >> 63;
    hi = (hi << 1) | lo_top;
    u128 s = static_cast<u128>(a[i]) * a[i] + lo + carry;
    t[2 * i] = static_cast<Limb>(s);
    s = static_cast<u128>(hi) + static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }

  // Separated Montgomery reduction: k rounds of t += (t[i] * n' mod 2^64)
  // * n << 64i, each zeroing limb i; the reduced value is t / R = t[k ..
  // 2k]. Round i's carry lands at t[i+k], and any overflow there belongs at
  // t[i+k+1] — exactly round i+1's carry position — so a single held limb
  // forwards it without the data-dependent ripple walk (and its
  // mispredicted branch) a generic SOS loop needs.
  Limb hold = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb m = t[i] * n0_inv;
    Limb c = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<Limb>(s);
      c = static_cast<Limb>(s >> 64);
    }
    const u128 s = static_cast<u128>(t[i + k]) + c + hold;
    t[i + k] = static_cast<Limb>(s);
    hold = static_cast<Limb>(s >> 64);
  }
  // The running total stays below 2 R^2, so the final hold stops at t[2k].
  t[2 * k] += hold;
  reduce_once(t + k, t[2 * k], n, k, out);
}

// ------------------------------------------------------ fixed width, x86-64

#if defined(__x86_64__)

/// Does this CPU execute mulx (BMI2)? Checked once per process.
inline bool cpu_has_bmi2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") != 0;
  }();
  return has;
}

/// 192-bit column accumulator of the product-scanning kernels. A column
/// sums at most 2K + 2 products below 2^128 plus the previous column's
/// carry, so for K <= 32 it never overflows three limbs.
struct Acc3 {
  Limb t0 = 0;
  Limb t1 = 0;
  Limb t2 = 0;

  /// Moves to the next column: returns the finished low limb.
  Limb shift() {
    const Limb lo = t0;
    t0 = t1;
    t1 = t2;
    t2 = 0;
    return lo;
  }
};

/// acc += x * y. Both operands stay memory operands, so the unrolled
/// kernels read each limb where it lies instead of the compiler hoisting
/// (and spilling) every limb into a register.
[[gnu::always_inline]] inline void mac(Acc3& acc, const Limb& x, const Limb& y) {
  Limb lo = 0;
  Limb hi = 0;
  __asm__(
      "movq %[x], %%rdx\n\t"
      "mulxq %[y], %[lo], %[hi]\n\t"
      "addq %[lo], %[t0]\n\t"
      "adcq %[hi], %[t1]\n\t"
      "adcq $0, %[t2]"
      : [lo] "=&r"(lo), [hi] "=&r"(hi), [t0] "+r"(acc.t0), [t1] "+r"(acc.t1),
        [t2] "+r"(acc.t2)
      : [x] "m"(x), [y] "m"(y)
      : "rdx", "cc");
}

/// acc += other.
[[gnu::always_inline]] inline void merge(Acc3& acc, const Acc3& other) {
  __asm__(
      "addq %[o0], %[t0]\n\t"
      "adcq %[o1], %[t1]\n\t"
      "adcq %[o2], %[t2]"
      : [t0] "+r"(acc.t0), [t1] "+r"(acc.t1), [t2] "+r"(acc.t2)
      : [o0] "r"(other.t0), [o1] "r"(other.t1), [o2] "r"(other.t2)
      : "cc");
}

/// p += x * yp and q += x * yq, loading x into rdx once: two columns of a
/// kernel that share a multiplier limb.
[[gnu::always_inline]] inline void mac2(Acc3& p, Acc3& q, const Limb& x, const Limb& yp,
                                        const Limb& yq) {
  Limb lo = 0;
  Limb hi = 0;
  __asm__(
      "movq %[x], %%rdx\n\t"
      "mulxq %[yp], %[lo], %[hi]\n\t"
      "addq %[lo], %[p0]\n\t"
      "adcq %[hi], %[p1]\n\t"
      "adcq $0, %[p2]\n\t"
      "mulxq %[yq], %[lo], %[hi]\n\t"
      "addq %[lo], %[q0]\n\t"
      "adcq %[hi], %[q1]\n\t"
      "adcq $0, %[q2]"
      : [lo] "=&r"(lo), [hi] "=&r"(hi), [p0] "+r"(p.t0), [p1] "+r"(p.t1), [p2] "+r"(p.t2),
        [q0] "+r"(q.t0), [q1] "+r"(q.t1), [q2] "+r"(q.t2)
      : [x] "m"(x), [yp] "m"(yp), [yq] "m"(yq)
      : "rdx", "cc");
}

/// out = (hi:r) mod n for a value in [0, 2n): one branch-free trial
/// subtraction, kept when it does not borrow past the carry limb.
template <std::size_t K>
void sub_if_ge(const Limb* r, Limb hi, const Limb* n, Limb* out) {
  Limb d[K];
  unsigned char borrow = 0;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < K; ++i) {
    unsigned long long x = 0;
    borrow = _subborrow_u64(borrow, r[i], n[i], &x);
    d[i] = x;
  }
  const Limb keep = (hi == 0 && borrow != 0) ? ~Limb{0} : 0;  // r < n
#pragma GCC unroll 32
  for (std::size_t i = 0; i < K; ++i) out[i] = (r[i] & keep) | (d[i] & ~keep);
}

/// Product-scanning Montgomery product for a K-limb modulus. Column i sums
/// a[j]*b[i-j] and m[j]*n[i-j]; in the low K columns it then picks m[i] so
/// the column's low limb cancels, in the high K it emits one result limb.
template <std::size_t K>
void mont_mul_fixed(const Limb* a, const Limb* b, Limb* out, Limb* /*scratch*/, const Limb* n,
                    Limb n0_inv, std::size_t /*k*/) {
  // The kernels' arrays are written limb by limb before any read; zero-
  // filling them first measured ~10% slower at 16 limbs.
  Limb m[K];
  Limb r[K];
  Acc3 acc;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < K; ++i) {
#pragma GCC unroll 32
    for (std::size_t j = 0; j < i; ++j) {
      mac(acc, a[j], b[i - j]);
      mac(acc, m[j], n[i - j]);
    }
    mac(acc, a[i], b[0]);
    m[i] = acc.t0 * n0_inv;
    mac(acc, m[i], n[0]);
    acc.shift();
  }
#pragma GCC unroll 32
  for (std::size_t i = K; i < 2 * K; ++i) {
#pragma GCC unroll 32
    for (std::size_t j = i - K + 1; j < K; ++j) {
      mac(acc, a[j], b[i - j]);
      mac(acc, m[j], n[i - j]);
    }
    r[i - K] = acc.shift();
  }
  sub_if_ge<K>(r, acc.t0, n, out);
}

/// Product-scanning Montgomery square. The operand is doubled once up
/// front: with e_l = (a_l << 1) mod 2^64, d_l = e_l | (a_{l-1} >> 63) and
/// d_K = a_{K-1} >> 63 (so d = 2a), and B = 2^64,
///
///   a^2 = sum_j a_j * (a_j B^{2j} + e_{j+1} B^{2j+1} + sum_{l>=j+2} d_l B^{j+l}),
///
/// which adds every cross product once, already doubled: ~K^2/2 + 2K
/// multiplications against the product's K^2, and no doubling pass.
/// Columns go in pairs (c, c+1) with one accumulator each: a multiplier
/// limb a_j or m_j that both columns use is loaded into rdx once and
/// multiplied twice, and the two carry chains overlap.
template <std::size_t K>
void mont_sqr_fixed(const Limb* a, Limb* out, Limb* /*scratch*/, const Limb* n, Limb n0_inv,
                    std::size_t /*k*/) {
  Limb d[K + 1];
  Limb e[K + 1];
  Limb m[K];
  Limb r[K];
  Limb top = 0;
#pragma GCC unroll 32
  for (std::size_t l = 0; l < K; ++l) {
    e[l] = a[l] << 1;
    d[l] = e[l] | top;
    top = a[l] >> 63;
  }
  d[K] = top;
  e[K] = 0;

  // Finishes column c in acc: cancels its low limb (c < K) or emits it.
  const auto finish = [&](Acc3& acc, std::size_t c) {
    if (c < K) {
      m[c] = acc.t0 * n0_inv;
      mac(acc, m[c], n[0]);
      acc.shift();
    } else {
      r[c - K] = acc.shift();
    }
  };

  Acc3 acc;  // column c, carrying in the columns below
#pragma GCC unroll 32
  for (std::size_t c = 0; c < 2 * K; c += 2) {
    Acc3 next;  // column c + 1
    // Square terms a_j * d_{c-j} (j <= c/2 - 1 in both columns).
#pragma GCC unroll 32
    for (std::size_t j = c < K ? 0 : c - K; j + j + 2 <= c; ++j) {
      if (c + 1 - j <= K) {
        mac2(acc, next, a[j], d[c - j], d[c + 1 - j]);
      } else {
        mac(acc, a[j], d[c - j]);
      }
    }
    // a_{c/2}^2 in column c; a_{c/2} * e_{c/2+1} in column c + 1 (e_K = 0:
    // the top column has no such term).
    mac2(acc, next, a[c / 2], a[c / 2], e[c / 2 + 1]);
    // Reduction terms m_j * n_{c-j}; m_c joins column c + 1 once known.
#pragma GCC unroll 32
    for (std::size_t j = c < K ? 0 : c - K + 1; j < (c < K ? c : K); ++j) {
      if (c + 1 - j < K) {
        mac2(acc, next, m[j], n[c - j], n[c + 1 - j]);
      } else {
        mac(acc, m[j], n[c - j]);
      }
    }
    finish(acc, c);
    merge(acc, next);
    if (c < K) mac(acc, m[c], n[1]);
    finish(acc, c + 1);
  }
  sub_if_ge<K>(r, acc.t0, n, out);
}

#endif  // __x86_64__

}  // namespace idgka::mpint::detail
