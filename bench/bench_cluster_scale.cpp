// Flat GroupSession vs depth-k hierarchical session at scale.
//
// For each group size: wall time, total broadcast volume and total energy of
// the initial key agreement, then the *per-event* cost of a small churn
// burst (half joins, half leaves), plus the tree shape (depth, cluster
// count) the hierarchy settled on. The flat protocol's per-event broadcast
// volume grows linearly with n (every event rekeys the whole ring); the
// hierarchical session keeps events cluster-local plus a tier path whose
// rings are all bounded by max_cluster, so its per-event volume is
// sub-linear at every scale. Flat runs are capped at n=256 to keep the
// sweep minutes-long; the default hierarchy sweep continues to 4096 (the
// head set passes max_cluster there, so the depth-3 nesting path runs in
// CI every day).
//
// `--full` additionally runs
//   * n=65536 real members end to end (form + churn), and
//   * a 1M-leaf synthetic deployment: the upper tiers are REAL — one
//     hierarchical session over all ~35.7k cluster-head ids — while the
//     leaf tier is one real exemplar cluster measured and scaled by the
//     cluster count (every leaf cluster is an independent ring of the
//     same size, so bits/energy extrapolate exactly; wall time does not
//     and is reported for the measured parts only).
//
// Writes BENCH_cluster.json (rows + tree shapes + peak_rss_kb). The
// deterministic fields (bits, energy, mod-exps, depth, cluster counts) are
// pure functions of the seed and gate in CI via bench_compare --ignore _ms.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/hierarchical_session.h"
#include "mpint/mod_context.h"

using namespace idgka;
using namespace idgka::bench;

namespace {

constexpr std::size_t kChurnEvents = 8;  // 4 joins + 4 leaves
constexpr std::size_t kFlatCap = 256;

struct Row {
  std::string mode;
  std::size_t n = 0;
  double form_ms = 0.0;
  double form_kbits = 0.0;
  double form_mj = 0.0;
  double event_ms = 0.0;
  double event_kbits = 0.0;
  double event_mj = 0.0;
  /// mpint exponentiations per churn event: a deterministic work counter
  /// that moves whenever a rekey touches more (or fewer) rings.
  double event_mod_exps = 0.0;
  std::size_t depth = 1;     // session tiers (1 = flat ring)
  std::size_t clusters = 1;  // leaf clusters
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

double exps_since(const mpint::OpCounts& before) {
  return static_cast<double>(mpint::op_counts().exps - before.exps) / kChurnEvents;
}

double ledger_total_mj(const energy::Ledger& ledger) {
  return energy::ledger_energy_mj(ledger, energy::strongarm(), energy::wlan_spectrum24());
}

Row run_flat(gka::Authority& authority, std::size_t n) {
  Row row;
  row.mode = "flat";
  row.n = n;
  gka::GroupSession session(authority, gka::Scheme::kProposed, make_ids(n, 10000), 1);
  auto t0 = std::chrono::steady_clock::now();
  if (!session.form().success) return row;
  row.form_ms = ms_since(t0);

  const auto sum_ledgers = [&] {
    energy::Ledger total;
    for (const std::uint32_t id : session.member_ids()) total += session.ledger(id);
    return total;
  };
  energy::Ledger after_form = sum_ledgers();
  row.form_kbits = static_cast<double>(after_form.tx_bits) / 1000.0;
  row.form_mj = ledger_total_mj(after_form);

  const mpint::OpCounts ops_before = mpint::op_counts();
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChurnEvents / 2; ++i) {
    if (!session.join(90000 + static_cast<std::uint32_t>(i)).success) return row;
    if (!session.leave(10001 + static_cast<std::uint32_t>(i)).success) return row;
  }
  row.event_ms = ms_since(t0) / kChurnEvents;
  row.event_mod_exps = exps_since(ops_before);
  // Departed members' ledgers are dropped by the session; the survivor sum
  // still dominates and the comparison is conservative *against* the
  // hierarchy (which retains every retired ledger in its roll-up).
  const energy::Ledger after_churn = sum_ledgers();
  row.event_kbits =
      static_cast<double>(after_churn.tx_bits - after_form.tx_bits) / 1000.0 / kChurnEvents;
  row.event_mj = (ledger_total_mj(after_churn) - row.form_mj) / kChurnEvents;
  return row;
}

Row run_hierarchical(gka::Authority& authority, std::size_t n) {
  Row row;
  row.mode = "hier";
  row.n = n;
  cluster::ClusterConfig cfg;
  cfg.min_cluster = 8;
  cfg.max_cluster = 48;
  cluster::HierarchicalSession session(authority, cfg, make_ids(n, 10000), 1);
  auto t0 = std::chrono::steady_clock::now();
  if (!session.form().success) return row;
  row.form_ms = ms_since(t0);
  row.depth = session.depth();
  row.clusters = session.cluster_count();
  const cluster::AggregateReport after_form = session.report();
  row.form_kbits = static_cast<double>(after_form.total.tx_bits) / 1000.0;
  row.form_mj = after_form.energy_mj(energy::strongarm(), energy::wlan_spectrum24());

  const mpint::OpCounts ops_before = mpint::op_counts();
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChurnEvents / 2; ++i) {
    if (!session.join(90000 + static_cast<std::uint32_t>(i)).success) return row;
    if (!session.leave(10001 + static_cast<std::uint32_t>(i)).success) return row;
  }
  row.event_ms = ms_since(t0) / kChurnEvents;
  row.event_mod_exps = exps_since(ops_before);
  const cluster::AggregateReport after_churn = session.report();
  row.event_kbits =
      static_cast<double>(after_churn.total.tx_bits - after_form.total.tx_bits) / 1000.0 /
      kChurnEvents;
  row.event_mj = (after_churn.energy_mj(energy::strongarm(), energy::wlan_spectrum24()) -
                  row.form_mj) /
                 kChurnEvents;
  return row;
}

/// The 1M-leaf synthetic deployment: real upper tiers over every cluster
/// head, one real exemplar leaf cluster scaled by the cluster count.
struct SyntheticRow {
  std::size_t leaves = 0;          // total leaf members represented
  std::size_t leaf_clusters = 0;   // independent leaf rings
  std::size_t leaf_size = 0;       // members per leaf ring (exemplar size)
  std::size_t depth = 0;           // full-tree depth (leaf tier + head tiers)
  std::size_t head_clusters = 0;   // leaf clusters of the real head session
  double head_form_ms = 0.0;       // measured: the real upper tiers
  double leaf_form_ms = 0.0;       // measured: one exemplar leaf ring
  double est_form_gbits = 0.0;     // exact extrapolation (rings independent)
  double est_form_j = 0.0;
};

SyntheticRow run_synthetic_million(gka::Authority& authority) {
  SyntheticRow row;
  cluster::ClusterConfig cfg;
  cfg.min_cluster = 8;
  cfg.max_cluster = 48;
  row.leaf_size = cfg.target_size();                   // 28
  row.leaf_clusters = 1'000'000 / row.leaf_size;       // 35'714
  row.leaves = row.leaf_clusters * row.leaf_size;      // 999'992

  // One real leaf ring: every leaf cluster is an independent ring of this
  // size with its own broadcast domain, so its bits/energy scale exactly.
  gka::GroupSession leaf(authority, gka::Scheme::kProposed, make_ids(row.leaf_size, 10000), 1);
  auto t0 = std::chrono::steady_clock::now();
  if (!leaf.form().success) return row;
  row.leaf_form_ms = ms_since(t0);
  energy::Ledger leaf_total;
  for (const std::uint32_t id : leaf.member_ids()) leaf_total += leaf.ledger(id);

  // The real upper tiers: a depth-k hierarchy over every head id.
  cluster::HierarchicalSession heads(authority, cfg, make_ids(row.leaf_clusters, 2'000'000), 1);
  t0 = std::chrono::steady_clock::now();
  if (!heads.form().success) return row;
  row.head_form_ms = ms_since(t0);
  row.depth = 1 + heads.depth();  // leaf tier + the measured head tree
  row.head_clusters = heads.cluster_count();
  const cluster::AggregateReport head_report = heads.report();

  const double total_bits = static_cast<double>(leaf_total.tx_bits) * row.leaf_clusters +
                            static_cast<double>(head_report.total.tx_bits);
  const double total_mj =
      ledger_total_mj(leaf_total) * row.leaf_clusters +
      head_report.energy_mj(energy::strongarm(), energy::wlan_spectrum24());
  row.est_form_gbits = total_bits / 1e9;
  row.est_form_j = total_mj / 1000.0;
  return row;
}

void print_row(const Row& row) {
  std::printf("%-6s %8zu %9.1f %11.1f %10.1f %9.2f %11.2f %9.3f %6zu %9zu\n",
              row.mode.c_str(), row.n, row.form_ms, row.form_kbits, row.form_mj, row.event_ms,
              row.event_kbits, row.event_mj, row.depth, row.clusters);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }

  std::printf("=== Cluster scaling: flat ring vs depth-k hierarchy ===\n");
  std::printf("kTiny parameter profile; churn burst = %zu events (joins+leaves);\n",
              kChurnEvents);
  std::printf("energy: StrongARM CPU + Spectrum24 WLAN radio, whole deployment%s\n\n",
              full ? "; --full (65k real + 1M synthetic)" : "");
  std::printf("%-6s %8s %9s %11s %10s %9s %11s %9s %6s %9s\n", "mode", "n", "form ms",
              "form kbit", "form mJ", "event ms", "event kbit", "event mJ", "depth",
              "clusters");
  rule('-', 98);

  gka::Authority authority(gka::SecurityProfile::kTiny, 4711);
  std::vector<Row> rows;
  std::vector<std::size_t> sweep = {32, 64, 128, 256, 512, 1024, 4096};
  if (full) sweep.push_back(65536);
  for (const std::size_t n : sweep) {
    if (n <= kFlatCap) {
      rows.push_back(run_flat(authority, n));
      print_row(rows.back());
    }
    rows.push_back(run_hierarchical(authority, n));
    print_row(rows.back());
  }
  rule('-', 98);

  SyntheticRow synth;
  if (full) {
    std::printf("\n--- 1M-leaf synthetic deployment (real upper tiers, scaled leaf tier) ---\n");
    synth = run_synthetic_million(authority);
    std::printf("leaves %zu in %zu clusters of %zu | full-tree depth %zu\n", synth.leaves,
                synth.leaf_clusters, synth.leaf_size, synth.depth);
    std::printf("measured: head tiers formed in %.1f s (%zu head-tier clusters); "
                "exemplar leaf ring in %.1f ms\n",
                synth.head_form_ms / 1000.0, synth.head_clusters, synth.leaf_form_ms);
    std::printf("extrapolated initial agreement: %.2f Gbit on air, %.1f J deployment-wide\n",
                synth.est_form_gbits, synth.est_form_j);
  }

  std::ofstream out("BENCH_cluster.json");
  out << "{\"bench\":\"cluster_scale\",\"full\":" << (full ? "true" : "false") << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ',';
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"mode\":\"%s\",\"n\":%zu,\"form_ms\":%.1f,\"form_kbits\":%.1f,"
                  "\"form_mj\":%.1f,\"event_ms\":%.2f,\"event_kbits\":%.2f,"
                  "\"event_mj\":%.3f,\"depth\":%zu,\"clusters\":%zu,\"event_mod_exps\":%.2f}",
                  rows[i].mode.c_str(), rows[i].n, rows[i].form_ms, rows[i].form_kbits,
                  rows[i].form_mj, rows[i].event_ms, rows[i].event_kbits, rows[i].event_mj,
                  rows[i].depth, rows[i].clusters, rows[i].event_mod_exps);
    out << buf;
  }
  out << ']';
  if (full) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ",\"synthetic_1m\":{\"leaves\":%zu,\"leaf_clusters\":%zu,\"leaf_size\":%zu,"
                  "\"depth\":%zu,\"head_clusters\":%zu,\"head_form_ms\":%.1f,"
                  "\"leaf_form_ms\":%.1f,\"est_form_gbits\":%.2f,\"est_form_j\":%.1f}",
                  synth.leaves, synth.leaf_clusters, synth.leaf_size, synth.depth,
                  synth.head_clusters, synth.head_form_ms, synth.leaf_form_ms,
                  synth.est_form_gbits, synth.est_form_j);
    out << buf;
  }
  char rss[64];
  std::snprintf(rss, sizeof rss, ",\"peak_rss_kb\":%zu}\n", peak_rss_kb());
  out << rss;
  out.close();
  std::printf("\nwrote BENCH_cluster.json (peak RSS %.1f MB)\n",
              static_cast<double>(peak_rss_kb()) / 1024.0);

  std::printf("per-event broadcast volume: flat grows ~linearly with n; hierarchical is\n"
              "bounded by the cluster size + tier path (sub-linear), which is what makes\n"
              "n=65k-1M churny deployments feasible.\n");
  return 0;
}
