// MANET patrol scenario — the paper's motivating workload.
//
// A patrol of nodes maintains a group key over a lossy wireless channel
// while its membership churns: units join, drop out, the patrol splits
// around an obstacle and the halves re-merge. The example traces every
// membership event, verifies key freshness and prints the cumulative
// energy budget per node — comparing the proposed dynamic protocols
// against what BD re-execution (the baseline) would have cost. The patrol
// runs on a sim::ProtocolDriver whose radio link loses copies; the merge
// with the second squad is a direct session call on the same network, so
// it crosses the same lossy link.
#include <cstdio>
#include <numeric>

#include "energy/profiles.h"
#include "gka/complexity.h"
#include "gka/session.h"
#include "sim/driver.h"

using namespace idgka;

namespace {

double node_mj(const gka::GroupSession& session, std::uint32_t id) {
  return energy::ledger_energy_mj(session.ledger(id), energy::strongarm(),
                                  energy::wlan_spectrum24());
}

void report(const gka::GroupSession& session, const char* event) {
  std::printf("%-28s members=%2zu  key=%s...\n", event, session.size(),
              session.key().to_hex().substr(0, 16).c_str());
}

}  // namespace

int main() {
  gka::Authority authority(gka::SecurityProfile::kTest, 7);

  // A patrol of 8 units on a lossy radio channel (5% independent frame
  // loss — the protocols retransmit transparently, and the ledger pays for
  // it).
  std::vector<std::uint32_t> unit_ids(8);
  std::iota(unit_ids.begin(), unit_ids.end(), 101U);
  gka::GroupSession patrol(authority, gka::Scheme::kProposed, unit_ids, /*seed=*/99);
  sim::DriverConfig radio;
  radio.link.loss_good = 0.05;
  radio.link.loss_bad = 0.05;
  sim::Scheduler scheduler;
  sim::ProtocolDriver driver(scheduler, radio, /*seed=*/99);
  driver.attach(patrol);

  if (!driver.form().success) return 1;
  report(patrol, "patrol formed");

  // Reinforcements arrive one by one.
  for (const std::uint32_t unit : {201U, 202U}) {
    if (!driver.join(unit).success) return 1;
    report(patrol, "reinforcement joined");
  }

  // A unit's battery dies; it must lose access to future traffic.
  if (!driver.leave(103).success) return 1;
  report(patrol, "unit 103 dropped");

  // The patrol meets a second squad and merges networks.
  gka::GroupSession squad(authority, gka::Scheme::kProposed, {301, 302, 303, 304},
                          /*seed=*/100);
  if (!squad.form().success) return 1;
  report(squad, "second squad formed");
  if (!patrol.merge(squad).success) return 1;
  report(patrol, "squads merged");

  // The formation splits: a detachment of three peels off (network
  // partition). The remaining group re-keys without them.
  if (!driver.partition({301, 302, 303}).success) return 1;
  report(patrol, "detachment partitioned away");

  // ------------------------------------------------------------------
  std::printf("\ncumulative energy per node (StrongARM + WLAN):\n");
  double total = 0.0;
  for (const std::uint32_t id : patrol.member_ids()) {
    const double mj = node_mj(patrol, id);
    total += mj;
    std::printf("  node %3u: %8.2f mJ\n", id, mj);
  }
  std::printf("  group total: %.2f mJ; the link lost %llu of its copies at %.0f%% loss\n",
              total, static_cast<unsigned long long>(driver.copies_dropped()), 5.0);

  // What would the same trace have cost with BD re-execution? (Paper's
  // baseline: every event re-runs authenticated BD+ECDSA at the new size.)
  const std::size_t event_sizes[] = {10, 11, 10, 14, 11};  // sizes after each event
  double reexec_mj = 0.0;
  for (const std::size_t n : event_sizes) {
    reexec_mj += energy::ledger_energy_mj(
        gka::impl_initial_ledger(gka::Scheme::kBdEcdsa, n), energy::strongarm(),
        energy::wlan_spectrum24());
  }
  std::printf("\nBD re-execution baseline for the same five events: %.2f mJ per node\n",
              reexec_mj);
  std::printf("(the dynamic protocols' advantage grows linearly with group size)\n");
  return 0;
}
