// The four authenticated dynamic membership protocols (Section 7).
//
// All four use symmetric re-keying under the current group key (SealedBox =
// the paper's E_K(payload || identity) with the identity-match validity
// check) so that most members perform no exponentiations at all:
//
//   Join (3 rounds):  U_{n+1} broadcasts a signed z_{n+1}; U_1 re-keys
//     K* = K * (z_2 z_n)^{-r_1} (z_2 z_{n+1})^{r_1'}  (Eq. 5) and U_n forms
//     the DH bridge K_{U_n U_{n+1}} = g^{r_n r_{n+1}}; everyone computes
//     K' = K* * K_{U_n U_{n+1}}  (Eq. 6).
//   Leave (2 rounds):  odd-indexed survivors refresh (r, tau); everyone
//     recomputes X' over the survivor ring, signs with the shared batch
//     challenge (Eq. 10) and reconstructs the new key (Eq. 11).
//   Merge (3 rounds):  the two controllers bridge the rings (Eqs. 7-9);
//     K' = K*_A * K*_B.
//   Partition (2 rounds):  Leave generalized to a set of departures
//     (Eqs. 12-13).
//
// Deviations from the paper (README, "Deviations from the paper"):
//  * U_1 additionally broadcasts z_1' = g^{r_1'} during Join (the paper
//    refreshes r_1 without publishing the new z, which would leave the ring
//    state inconsistent for subsequent events).
//  * The Join/Merge bridge messages carry the ring's (id, z, t) tables as
//    metadata so joining/merged members can take part in later events.
//  * Leave/Partition re-use the stored GQ commitment tau of even-indexed
//    survivors exactly as the paper specifies; note that answering two
//    different challenges with one tau leaks S_U (README, "Tau reuse" —
//    reproduced faithfully, flagged as a protocol weakness).
#pragma once

#include <span>
#include <vector>

#include "gka/exchange.h"
#include "gka/member.h"

namespace idgka::gka {

/// Join: `members` is the current group in ring order (>= 2), `joiner` the
/// enrolled new member. On success all states (including joiner's) hold the
/// new ring and key.
[[nodiscard]] RunResult run_join(const SystemParams& params, std::span<MemberCtx> members,
                                 MemberCtx& joiner, net::Network& network);

/// Leave: removes `leaver_id` from the ring. `members` is the current group
/// including the leaver; survivor states are updated, the leaver's state is
/// left as it was. A failed run changes no member's ring, key, secrets or
/// z/t tables (only DRBGs and energy ledgers advance). Requires >= 3
/// members (2 must remain).
/// `refresh_all_commitments` is the countermeasure to the tau-reuse
/// weakness (README, "Tau reuse"): every survivor draws a fresh GQ commitment
/// instead of only the odd-indexed ones (costs |even| extra mod-exps).
[[nodiscard]] RunResult run_leave(const SystemParams& params, std::span<MemberCtx> members,
                                  std::uint32_t leaver_id, net::Network& network,
                                  bool refresh_all_commitments = false);

/// Partition: removes all of `leaver_ids`. Requires >= 2 survivors. Same
/// all-or-nothing state update as run_leave.
[[nodiscard]] RunResult run_partition(const SystemParams& params,
                                      std::span<MemberCtx> members,
                                      const std::vector<std::uint32_t>& leaver_ids,
                                      net::Network& network,
                                      bool refresh_all_commitments = false);

/// Merge: combines two groups (each with an agreed key) into one ring
/// A || B. Controller roles: group_a[0] is U_1, group_b[0] is U_{n+1}.
[[nodiscard]] RunResult run_merge(const SystemParams& params, std::span<MemberCtx> group_a,
                                  std::span<MemberCtx> group_b, net::Network& network);

}  // namespace idgka::gka
