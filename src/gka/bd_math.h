// Burmester-Desmedt ring computations shared by every protocol variant.
//
// Ring of n members with ephemerals r_0..r_{n-1} (indices mod n):
//   z_i = g^{r_i}                                  (Round 1)
//   X_i = (z_{i+1} / z_{i-1})^{r_i}                (Round 2)
//   K   = g^{sum_i r_i r_{i+1}}                    (Eq. 3)
// Member i reconstructs K as
//   K = z_{i-1}^{n r_i} * X_i^{n-1} * X_{i+1}^{n-2} * ... * X_{i+n-2}
// and Lemma 1 gives the consistency check  prod_i X_i == 1 (mod p).
//
// All arithmetic flows through the caller's GroupCtx (params.group()): one
// shared ModContext per modulus plus the generator's fixed-base comb table —
// nothing here re-derives per-modulus state.
#pragma once

#include <span>
#include <vector>

#include "gka/params.h"

namespace idgka::gka::bd {

/// X = (z_next / z_prev)^r mod p.
[[nodiscard]] BigInt compute_x(const GroupCtx& grp, const BigInt& z_next,
                               const BigInt& z_prev, const BigInt& r);

/// Member `index`'s reconstruction of the group key from the full rings of
/// z and X values (both in ring order, size n).
[[nodiscard]] BigInt compute_key(const GroupCtx& grp, std::span<const BigInt> z,
                                 std::span<const BigInt> x, std::size_t index,
                                 const BigInt& r);

/// Lemma 1: prod_i X_i == 1 (mod p).
[[nodiscard]] bool lemma1_holds(const GroupCtx& grp, std::span<const BigInt> x);

}  // namespace idgka::gka::bd
