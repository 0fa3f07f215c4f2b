// Table 5 reproduction: per-role energy of the dynamic protocols at
// n=100, m=20, ld=20 (StrongARM + Spectrum24 WLAN).
//
// Proposed-protocol roles are priced from the validated formula ledgers;
// the BD baseline re-executes the full authenticated BD+ECDSA over the
// post-event group. The paper's printed joule figures are repeated in the
// right-hand column.
#include <cstdio>

#include "bench_util.h"

using namespace idgka;
using namespace idgka::bench;

namespace {

double role_j(const std::map<gka::Role, energy::Ledger>& ledgers, gka::Role role) {
  return energy::ledger_energy_mj(ledgers.at(role), energy::strongarm(),
                                  energy::wlan_spectrum24()) /
         1000.0;
}

double reexec_j(std::size_t group_size) {
  return initial_energy_j(gka::Scheme::kBdEcdsa, group_size, energy::wlan_spectrum24());
}

void row(const char* proto, const char* role, double joules, const char* paper) {
  std::printf("%-14s %-26s %10.4f J   (paper: %s)\n", proto, role, joules, paper);
}

}  // namespace

int main() {
  const std::size_t n = 100;
  const std::size_t m = 20;
  const std::size_t ld = 20;

  std::printf("=== Table 5: Energy Cost for Dynamic Protocols ===\n");
  std::printf("n=%zu, m=%zu, ld=%zu; StrongARM + Spectrum24 WLAN\n\n", n, m, ld);

  // --- Join ---------------------------------------------------------------
  row("BD Join", "U1 - Un (re-execute, n+1)", reexec_j(n + 1), "1.234 J");
  row("BD Join", "Un+1", reexec_j(n + 1), "2.31 J");
  const auto join = gka::impl_dynamic_ledgers(gka::DynamicEvent::kJoin, n);
  row("Our Join", "U1", role_j(join, gka::Role::kController), "0.039 J");
  row("Our Join", "Un", role_j(join, gka::Role::kBridge), "0.049 J");
  row("Our Join", "Un+1", role_j(join, gka::Role::kJoiner), "0.057 J");
  row("Our Join", "Others", role_j(join, gka::Role::kOther), "1.34 mJ");
  std::printf("\n");

  // --- Leave --------------------------------------------------------------
  row("BD Leave", "remaining users (n-1)", reexec_j(n - 1), "1.179 J");
  const auto leave = gka::impl_dynamic_ledgers(gka::DynamicEvent::kLeave, n);
  row("Our Leave", "Uj, j odd", role_j(leave, gka::Role::kOddSurvivor), "0.160 J");
  row("Our Leave", "Uk, k even", role_j(leave, gka::Role::kEvenSurvivor), "0.150 J");
  std::printf("\n");

  // --- Merge --------------------------------------------------------------
  row("BD Merge", "group A users (n+m)", reexec_j(n + m), "1.660 J");
  row("BD Merge", "group B users (n+m)", reexec_j(n + m), "2.532 J");
  const auto merge = gka::impl_dynamic_ledgers(gka::DynamicEvent::kMerge, n, m);
  row("Our Merge", "U1", role_j(merge, gka::Role::kController), "0.079 J");
  row("Our Merge", "Un+1", role_j(merge, gka::Role::kBridge), "0.079 J");
  row("Our Merge", "Others", role_j(merge, gka::Role::kOtherA), "0.986 mJ");
  std::printf("\n");

  // --- Partition ----------------------------------------------------------
  row("BD Partition", "remaining users (n-ld)", reexec_j(n - ld), "0.942 J");
  const auto part = gka::impl_dynamic_ledgers(gka::DynamicEvent::kPartition, n, 0, ld);
  row("Our Partition", "Uj, j odd", role_j(part, gka::Role::kOddSurvivor), "0.142 J");
  row("Our Partition", "Uk, k even", role_j(part, gka::Role::kEvenSurvivor), "0.132 J");

  std::printf("\nHeadline reproduced: the proposed dynamic protocols cost 1-2 orders of\n");
  std::printf("magnitude less energy than re-executing authenticated BD.\n");
  std::printf("Known deltas vs the paper (README, Deviations from the paper): our Join U1\n");
  std::printf("additionally publishes its refreshed z1' (one extra mod-exp, ~9.1 mJ),\n");
  std::printf("and passive members are charged every broadcast they hear.\n");
  return 0;
}
