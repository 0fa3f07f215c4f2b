// Hierarchical clustering demo: a 100-node ad hoc deployment with bounded
// clusters, a churn burst applied as one update, and the deployment-wide energy roll-up.
//
// Build & run:  ./examples/cluster_demo
#include <cstdio>

#include "cluster/hierarchical_session.h"
#include "energy/profiles.h"

int main() {
  using namespace idgka;

  gka::Authority authority(gka::SecurityProfile::kTest, /*seed=*/2026);

  // 100 nodes, clusters bounded to [6, 20] members.
  cluster::ClusterConfig cfg;
  cfg.min_cluster = 6;
  cfg.max_cluster = 20;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 100; ++i) ids.push_back(100 + i);

  cluster::HierarchicalSession session(authority, cfg, ids, /*seed=*/7);
  if (!session.form().success) {
    std::fprintf(stderr, "hierarchical key agreement failed\n");
    return 1;
  }
  std::printf("formed %zu members in %zu clusters:", session.size(), session.cluster_count());
  for (const std::size_t s : session.cluster_sizes()) std::printf(" %zu", s);
  std::printf("\ngroup key: %s...  (all members agree: %s)\n",
              session.group_key().to_hex().substr(0, 24).c_str(),
              session.all_members_agree() ? "yes" : "no");

  // A churn burst: ten arrivals and eight departures, applied as one update —
  // one head-tier rekey + one downward key distribution for all 18 events.
  std::vector<std::uint32_t> joiners;
  std::vector<std::uint32_t> leavers;
  for (std::uint32_t i = 0; i < 10; ++i) joiners.push_back(500 + i);
  for (std::uint32_t i = 0; i < 8; ++i) leavers.push_back(110 + 3 * i);
  const cluster::EventSummary burst = session.update(leavers, joiners);
  std::printf("\nburst: %zu events in one rekey round (epoch %llu), %zu leaf runs, "
              "%zu splits, %zu merges\n",
              burst.events_applied, static_cast<unsigned long long>(burst.epoch),
              burst.clusters_touched, burst.splits, burst.merges);
  std::printf("now %zu members in %zu clusters, all agree: %s\n", session.size(),
              session.cluster_count(), session.all_members_agree() ? "yes" : "no");

  // Whole-deployment cost under the paper's StrongARM + Spectrum24 model.
  const cluster::AggregateReport report = session.report();
  std::printf("\nlifetime roll-up: %.1f mJ total, head tier %llu mod-exps, "
              "%llu broadcast messages, %.1f kbit transmitted\n",
              report.energy_mj(energy::strongarm(), energy::wlan_spectrum24()),
              static_cast<unsigned long long>(report.head_tier.count(energy::Op::kModExp)),
              static_cast<unsigned long long>(report.traffic.tx_messages),
              static_cast<double>(report.tx_bits()) / 1000.0);
  return 0;
}
