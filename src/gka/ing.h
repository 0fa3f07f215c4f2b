// The Ingemarsson-Tang-Wong (ING) conference key protocol — the first GKA
// (IEEE Trans. IT 1982), cited by the paper as the origin of the field.
//
// Included as an extension baseline: it contrasts the BD family's 2-round
// broadcast structure with the original n-1-round unicast ring:
//   round k (k = 1..n-1): U_i raises the value received from U_{i-1} to
//   r_i and forwards it to U_{i+1}; the value U_i receives in the final
//   round, raised to r_i, is K = g^{r_1 r_2 ... r_n}.
// Per member: n-1 unicast transmissions/receptions and n-1 modular
// exponentiations (n-2 forwarding + 1 final), with no authentication —
// which is exactly why the paper's comparison set moved on to
// authenticated BD variants.
#pragma once

#include <span>

#include "gka/exchange.h"
#include "gka/member.h"

namespace idgka::gka {

/// Executes ING among `members` (>= 2). Unauthenticated (historical
/// baseline). On success all members share the key g^{prod r_i}.
[[nodiscard]] RunResult run_ing(const SystemParams& params, std::span<MemberCtx> members,
                                net::Network& network);

}  // namespace idgka::gka
