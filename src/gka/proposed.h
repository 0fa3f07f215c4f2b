// The paper's proposed ID-based authenticated GKA protocol (Section 4).
//
// Two rounds over the broadcast network:
//   Round 1: U_i draws r_i in Z_q^*, tau_i in Z_n^*, broadcasts
//            m_i = U_i || z_i || t_i  with z_i = g^{r_i}, t_i = tau_i^e.
//   Round 2: U_i computes X_i = (z_{i+1}/z_{i-1})^{r_i},
//            Z = prod z_j mod p, T = prod t_j mod n, c = H(T || Z),
//            s_i = tau_i * S_{U_i}^c, broadcasts m'_i = U_i || X_i || s_i
//            (U_1, the trusted controller, broadcasts last).
//   Verify:  batch equation (2) with the stored (Z, c), then Lemma 1
//            (prod X_i == 1), then K = z_{i-1}^{n r_i} * prod X^... (Eq. 3).
// On a failed check the members retransmit (driven by exchange_round and
// the retry loop here).
#pragma once

#include <span>

#include "gka/exchange.h"
#include "gka/member.h"

namespace idgka::gka {

/// Optional protocol extensions (not in the 2006 paper; see README,
/// "Key confirmation is an extension").
struct ProposedOptions {
  /// Adds a third round of explicit key confirmation: every member
  /// broadcasts HMAC_{K'}(U_i) and verifies the n-1 peer tags, upgrading
  /// implicit agreement to mutual confirmation (Katz-Yung style).
  bool key_confirmation = false;
};

/// Executes the proposed protocol among `members` (>= 2). On success every
/// member's ring/z_map/t_map/key state is updated in place.
[[nodiscard]] RunResult run_proposed(const SystemParams& params,
                                     std::span<MemberCtx> members, net::Network& network,
                                     const ProposedOptions& options = {});

}  // namespace idgka::gka
