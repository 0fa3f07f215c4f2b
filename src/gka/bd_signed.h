// Authenticated Burmester-Desmedt baselines (paper Table 1, columns 2-4).
//
// The intuitive authentication of BD: each member signs
//   m_i = U_i || z_i || X_i || prod_j z_j
// in Round 2 and verifies the n-1 peer signatures. Variants:
//   * kSok:   ID-based SOK-family signature (pairing verification,
//             n-1 MapToPoint operations per member, no certificates).
//   * kEcdsa: certificate-based 160-bit ECDSA — certificates travel with
//             Round 1 and each member verifies n-1 of them.
//   * kDsa:   certificate-based 1024-bit DSA, same structure.
#pragma once

#include <span>

#include "gka/exchange.h"
#include "gka/member.h"

namespace idgka::gka {

/// Which signature scheme authenticates the BD run.
enum class BdAuth { kSok, kEcdsa, kDsa };

/// Executes authenticated BD among `members`. Requires the Authority the
/// members were enrolled with (verification needs the CA / SOK public key).
[[nodiscard]] RunResult run_bd_signed(const Authority& authority, BdAuth auth,
                                      std::span<MemberCtx> members, net::Network& network);

}  // namespace idgka::gka
