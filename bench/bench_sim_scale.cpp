// Discrete-event simulation at scale: hierarchical GKA over timed, bursty
// links, with determinism verification.
//
// For n in {64, 256} and average link loss in {0, 5%} (Gilbert–Elliott
// bursts), runs a fixed churn trace through the scenario engine twice with
// the same seed, checks the two metrics JSON blobs are bit-identical, and
// reports rekey convergence, latency percentiles and bits on air. A fifth
// row runs examples/sim_lifetime's sensor field (12 nodes, random-waypoint
// mobility, 4 J batteries with a 1 mW idle draw, 3% bursty loss, stop at
// the first battery death), so the baseline also pins mobility, battery
// depletion and the lifetime stop. Results are written to BENCH_sim.json
// (a CI artifact). Exits non-zero when a run is non-deterministic or
// converges below 99% — the acceptance bar.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/scenario.h"

using namespace idgka;
using namespace idgka::bench;

namespace {

sim::ScenarioConfig make_config(std::size_t n, double loss) {
  sim::ScenarioConfig cfg;
  cfg.name = "sim_scale_n" + std::to_string(n) + "_loss" + std::to_string(static_cast<int>(loss * 100));
  cfg.topology = sim::Topology::kHierarchical;
  cfg.initial_members = n;
  cfg.base_id = 10'000;
  cfg.seed = 424242;
  cfg.duration_us = 600 * sim::kUsPerSec;
  cfg.driver.link = sim::LinkConfig::bursty(loss);
  cfg.cluster.min_cluster = 8;
  cfg.cluster.max_cluster = 24;

  // Churn: a join/leave mix, one batch departure and its re-admission —
  // every event is a rekey that must converge through retransmission.
  std::uint32_t next_id = 90'000;
  sim::SimTime t = 20 * sim::kUsPerSec;
  for (int i = 0; i < 4; ++i) {
    cfg.trace.push_back({t, sim::TraceEvent::Kind::kJoin, {next_id++}});
    t += 20 * sim::kUsPerSec;
    cfg.trace.push_back(
        {t, sim::TraceEvent::Kind::kLeave, {cfg.base_id + 1 + static_cast<std::uint32_t>(i)}});
    t += 20 * sim::kUsPerSec;
  }
  const std::vector<std::uint32_t> squad{cfg.base_id + 20, cfg.base_id + 21, cfg.base_id + 22,
                                         cfg.base_id + 23};
  cfg.trace.push_back({t, sim::TraceEvent::Kind::kPartition, squad});
  t += 40 * sim::kUsPerSec;
  cfg.trace.push_back({t, sim::TraceEvent::Kind::kMerge, squad});
  return cfg;
}

/// examples/sim_lifetime's deployment: churn comes from mobility and
/// battery deaths instead of a trace.
sim::ScenarioConfig lifetime_config() {
  sim::ScenarioConfig cfg;
  cfg.name = "sensor_lifetime";
  cfg.topology = sim::Topology::kHierarchical;
  cfg.initial_members = 12;
  cfg.base_id = 100;
  cfg.seed = 2026;
  cfg.duration_us = 3600 * sim::kUsPerSec;
  cfg.stop_on_first_death = true;
  cfg.cluster.min_cluster = 3;
  cfg.cluster.max_cluster = 6;
  cfg.driver.link = sim::LinkConfig::bursty(0.03);
  cfg.power.capacity_mj = 4000.0;
  cfg.power.idle_mw = 1.0;
  cfg.waypoint.enabled = true;
  cfg.waypoint.field_m = 400.0;
  cfg.waypoint.range_m = 150.0;
  cfg.waypoint.speed_mps = 8.0;
  cfg.waypoint.tick_us = 10 * sim::kUsPerSec;
  return cfg;
}

struct BenchRow {
  std::size_t n = 0;
  double loss = 0.0;
  double wall_ms = 0.0;
  bool deterministic = false;
  sim::Metrics metrics;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("=== Discrete-event sim scale: hierarchical GKA over timed bursty links ===\n");
  std::printf("kTiny parameters; per-config: one churn trace (10 rekeys), or the sensor-field\n");
  std::printf("lifetime run, run twice with the same seed to verify bit-identical metrics JSON\n\n");
  std::printf("%6s %6s %9s %7s %12s %12s %12s %11s %6s\n", "n", "loss", "wall ms", "rekeys",
              "converge", "p50 ms", "p99 ms", "air kbit", "ident");
  rule('-', 92);

  std::vector<std::pair<double, sim::ScenarioConfig>> configs;
  for (const std::size_t n : {64UL, 256UL}) {
    for (const double loss : {0.0, 0.05}) configs.emplace_back(loss, make_config(n, loss));
  }
  configs.emplace_back(0.03, lifetime_config());

  std::vector<BenchRow> rows;
  bool ok = true;
  for (const auto& [loss, cfg] : configs) {
    BenchRow row;
    row.n = cfg.initial_members;
    row.loss = loss;
    const auto t0 = std::chrono::steady_clock::now();
    row.metrics = sim::ScenarioRunner(cfg).run();
    row.wall_ms = ms_since(t0);
    const sim::Metrics repeat = sim::ScenarioRunner(cfg).run();
    row.deterministic = row.metrics.to_json() == repeat.to_json();

    const sim::LatencySummary latency = sim::summarize_latency(row.metrics.op_latencies_us.all);
    std::printf("%6zu %5.0f%% %9.1f %3zu/%-3zu %11.1f%% %12.1f %12.1f %11.1f %6s\n", row.n,
                loss * 100.0, row.wall_ms, row.metrics.rekeys_completed,
                row.metrics.rekeys_attempted, row.metrics.convergence() * 100.0,
                static_cast<double>(latency.p50_us) / 1000.0,
                static_cast<double>(latency.p99_us) / 1000.0,
                static_cast<double>(row.metrics.bits_on_air) / 1000.0,
                row.deterministic ? "yes" : "NO");
    ok = ok && row.deterministic && row.metrics.form_success &&
         row.metrics.convergence() >= 0.99 && row.metrics.all_members_agree;
    rows.push_back(std::move(row));
  }
  rule('-', 92);

  std::ofstream out("BENCH_sim.json");
  out << "{\"bench\":\"sim_scale\",\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ',';
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"n\":%zu,\"loss\":%.2f,\"wall_ms\":%.1f,\"deterministic\":%s,\"metrics\":",
                  rows[i].n, rows[i].loss, rows[i].wall_ms,
                  rows[i].deterministic ? "true" : "false");
    out << head << rows[i].metrics.to_json() << '}';
  }
  out << "]}\n";
  out.close();
  std::printf("\nwrote BENCH_sim.json (%zu runs)\n", rows.size());

  if (!ok) {
    std::printf("FAILED: a run was non-deterministic, did not form, or converged < 99%%\n");
    return 1;
  }
  std::printf("all runs deterministic, all rekeys >= 99%% converged\n");
  return 0;
}
