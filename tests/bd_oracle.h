// The Burmester-Desmedt key computed directly from every member's
// ephemeral, g^{r_0 r_1 + r_1 r_2 + ... + r_{n-1} r_0} mod p: the oracle the
// protocol suites check each run's agreed key against, with none of the
// ring reconstruction (gka::bd) the protocols use.
#pragma once

#include <span>
#include <stdexcept>

#include "gka/params.h"

namespace idgka::test {

inline mpint::BigInt direct_key(const gka::GroupCtx& grp, std::span<const mpint::BigInt> r) {
  const std::size_t n = r.size();
  if (n < 2) throw std::invalid_argument("direct_key: need at least 2 members");
  mpint::BigInt exp{};
  for (std::size_t i = 0; i < n; ++i) {
    exp = (exp + r[i] * r[(i + 1) % n]).mod(grp.q);
  }
  return grp.p.exp(grp.g, exp);
}

}  // namespace idgka::test
