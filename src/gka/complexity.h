// Closed-form complexity/energy formulas.
//
// Two families:
//  * paper_table1 / paper_table4 — the rows exactly as printed in the paper
//    (for side-by-side reproduction output).
//  * impl_*_ledger — per-member operation + traffic ledgers predicted for
//    THIS implementation, using the paper's wire-size accounting (Table 3
//    footnotes). Tests assert these formulas equal the instrumented ledgers
//    of real protocol runs; the Figure-1 / Table-5 benches then evaluate
//    them at any group size instantly (the paper itself prices counts, not
//    wall-clock measurements).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "energy/ops.h"
#include "energy/profiles.h"
#include "gka/session.h"

namespace idgka::gka {

// ---------------------------------------------------------------------------
// Paper rows (verbatim formulas)
// ---------------------------------------------------------------------------

/// One column of Table 1 (per-member costs of the initial GKA).
struct Table1Row {
  std::string exponentiations;  ///< "3" or "2n+4" (symbolic, as printed)
  std::uint64_t exp_count = 0;  ///< evaluated at n
  std::uint64_t msg_tx = 0;
  std::uint64_t msg_rx = 0;
  std::uint64_t cert_tx = 0;
  std::uint64_t cert_rx = 0;
  std::uint64_t cert_ver = 0;
  std::uint64_t map_to_point = 0;
  std::uint64_t sign_gen = 0;
  std::uint64_t sign_ver = 0;
};
[[nodiscard]] Table1Row paper_table1(Scheme scheme, std::size_t n);

/// One row of Table 4 (dynamic protocol costs, as printed).
struct Table4Row {
  int rounds = 0;
  std::string msgs;          ///< symbolic, e.g. "2n+2"
  std::uint64_t msg_count = 0;
  std::string exps;          ///< symbolic with the paper's footnote semantics
  std::uint64_t sign_gen = 0;
  std::uint64_t sign_ver = 0;
};
enum class DynamicEvent { kJoin, kLeave, kMerge, kPartition };
[[nodiscard]] const char* dynamic_event_name(DynamicEvent event);
/// `baseline` true => the re-executed "BD with ECDSA" row; false => proposed.
/// Parameters: n current size, m merging users, ld leaving users, v odd
/// survivors (paper notation).
[[nodiscard]] Table4Row paper_table4(DynamicEvent event, bool baseline, std::size_t n,
                                     std::size_t m, std::size_t ld);

// ---------------------------------------------------------------------------
// Implementation-model ledgers (validated against instrumented runs)
// ---------------------------------------------------------------------------

/// Per-member predicted ledger for the initial GKA of `scheme` at size n.
/// Identical for every member (all schemes are symmetric).
[[nodiscard]] energy::Ledger impl_initial_ledger(Scheme scheme, std::size_t n);

/// Dynamic-event roles (proposed scheme).
enum class Role {
  kController,   ///< U_1
  kBridge,       ///< U_n (join) / U_{n+1} (merge: the B controller)
  kJoiner,       ///< U_{n+1} in join
  kOddSurvivor,  ///< odd-indexed survivor in leave/partition
  kEvenSurvivor,
  kOtherA,       ///< non-controller member of group A in merge
  kOtherB,
  kOther,        ///< passive member (join)
};

/// Predicted per-member ledgers for a proposed-scheme dynamic event.
/// Keyed by role; missing roles do not participate in that event.
///  - join:      kController, kBridge, kJoiner, kOther (n = pre-join size)
///  - leave:     kOddSurvivor, kEvenSurvivor (n = pre-leave size)
///  - merge:     kController, kBridge, kOtherA, kOtherB (n, m = group sizes)
///  - partition: kOddSurvivor, kEvenSurvivor (ld = number leaving)
/// `z_bits`/`gq_bits` select the wire sizes (default: the paper's 1024-bit
/// accounting; tests pass the active profile's sizes).
[[nodiscard]] std::map<Role, energy::Ledger> impl_dynamic_ledgers(
    DynamicEvent event, std::size_t n, std::size_t m = 0, std::size_t ld = 0,
    std::size_t z_bits = energy::wire::kGroupElementBits,
    std::size_t gq_bits = energy::wire::kGqModulusBits);

/// Wire-size model shared by the formulas (paper Table 3 accounting):
/// the sealed-box size in bits for a payload of `payload_bits`.
[[nodiscard]] std::size_t sealed_bits(std::size_t payload_bits);

}  // namespace idgka::gka
