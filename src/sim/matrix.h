// Scenario-matrix runner: one comparative sweep over {topology x link
// class x loss model x churn level}.
//
// Each cell of the matrix is one ScenarioRunner run of the same group
// under a different environment: a link-class preset (MANET two-hop radio,
// LEO ~30 ms, GEO ~250 ms — each carrying its own round timeout, since a
// 60 ms default timeout under a 250 ms propagation delay would time every
// round out), a loss model (clean / independent uniform / Gilbert-Elliott
// bursty at the same average), and a churn level (a deterministically
// generated join/leave/partition/merge trace). The runner captures, per
// cell, the scenario metrics (their `latency` block spans every completed
// operation) and the obs::Registry snapshot *delta* scoped to the cell —
// so per-link drop counters and per-group rekey retries land in the cell
// that caused them even though the registry is process-global.
//
// The report serializes to deterministic JSON (same seed -> byte-identical
// bytes; pinned by sim_matrix_test) and to a markdown summary table, and
// compare() diffs a current report against a committed baseline with
// configurable regression thresholds — the CI matrix smoke job fails on
// threshold breaches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_reader.h"
#include "obs/registry.h"
#include "sim/scenario.h"

namespace idgka::sim {

/// A named link-environment preset: channel parameters plus the round
/// timeout that makes reliable rounds viable on that channel.
struct LinkClass {
  std::string name;
  LinkConfig link;
  SimTime round_timeout_us = 60'000;

  /// Paper radio: 100 kbps, 2 ms MAC+propagation, light jitter.
  [[nodiscard]] static LinkClass manet();
  /// Low-earth-orbit relay: ~30 ms one-way propagation.
  [[nodiscard]] static LinkClass leo();
  /// Geostationary relay: ~250 ms one-way propagation; rounds need a
  /// timeout well above the worst-case copy delay.
  [[nodiscard]] static LinkClass geo();
  [[nodiscard]] static std::vector<LinkClass> all();
};

/// How loss is drawn on top of a link class's delay model.
struct LossModel {
  std::string name;
  /// Stationary average loss probability; must be in [0, 0.4).
  double average_loss = 0.0;
  /// false: independent uniform loss at `average_loss` per copy;
  /// true: Gilbert-Elliott bursts (mean burst 4 copies) at the same
  /// stationary average.
  bool bursty = false;

  /// Overlays this loss model on a link class's delay parameters.
  [[nodiscard]] LinkConfig apply(const LinkConfig& base) const;
};

/// A named churn intensity: `events` membership events are generated at
/// evenly spaced virtual timestamps (leave / join alternating, with every
/// fourth pair widened into a partition + merge batch).
struct ChurnLevel {
  std::string name;
  std::size_t events = 0;
};

struct MatrixConfig {
  std::string name = "matrix";
  std::uint64_t seed = 1;
  std::size_t members = 12;
  gka::SecurityProfile profile = gka::SecurityProfile::kTiny;
  SimTime duration_us = 120 * kUsPerSec;
  /// Hierarchical cells shard with these bounds (scheme applies to flat
  /// cells too); small bounds so matrix-sized groups actually shard.
  cluster::ClusterConfig cluster = [] {
    cluster::ClusterConfig c;
    c.min_cluster = 2;
    c.max_cluster = 8;
    return c;
  }();

  std::vector<Topology> topologies = {Topology::kFlat, Topology::kHierarchical};
  std::vector<LinkClass> link_classes = LinkClass::all();
  std::vector<LossModel> loss_models = {{"clean", 0.0, false},
                                        {"uniform10", 0.10, false},
                                        {"bursty10", 0.10, true}};
  std::vector<ChurnLevel> churn_levels = {{"calm", 2}, {"churny", 8}};
};

/// One cell's results: scenario metrics (whose `latency` block covers every
/// completed operation, form included) + scoped registry delta.
struct MatrixCell {
  std::string id;  ///< "topology/link/loss/churn"
  std::string topology;
  std::string link_class;
  std::string loss_model;
  std::string churn;

  Metrics metrics;
  obs::Snapshot delta;  ///< registry increments attributable to this cell
};

struct MatrixReport {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t members = 0;
  std::vector<MatrixCell> cells;

  /// Deterministic JSON: same config + seed -> byte-identical output.
  [[nodiscard]] std::string to_json() const;
  /// Markdown summary: one row per cell plus per-cell labeled-delta notes.
  [[nodiscard]] std::string to_markdown() const;
};

class MatrixRunner {
 public:
  explicit MatrixRunner(MatrixConfig config);

  /// Runs every cell sequentially (each under its own ScopedSnapshotDelta)
  /// and returns the comparative report.
  [[nodiscard]] MatrixReport run();

  /// The deterministic churn trace a cell with `level` runs; exposed for
  /// tests and for anyone replaying a single cell.
  [[nodiscard]] static std::vector<TraceEvent> churn_trace(const ChurnLevel& level,
                                                           const MatrixConfig& cfg);

 private:
  MatrixConfig cfg_;
};

// ------------------------------------------------------- baseline compare

/// Regression thresholds for compare(); percentages are relative to the
/// baseline value (a 0 baseline regresses only via `absolute_slack_us`).
struct CompareThresholds {
  /// Max allowed growth of latency percentiles (p50/p90/p99), in percent.
  double latency_pct = 10.0;
  /// Latency growth below this many microseconds never regresses (guards
  /// tiny baselines against percentage noise).
  SimTime latency_slack_us = 2'000;
  /// Max allowed growth of drop / retry counters, in percent.
  double counter_pct = 25.0;
  double counter_slack = 4.0;
  /// Convergence (completed/attempted) must not fall below baseline minus
  /// this many percentage points.
  double convergence_drop_pct = 0.0;
};

struct Regression {
  std::string cell;
  std::string field;
  double baseline = 0.0;
  double current = 0.0;
};

struct CompareResult {
  std::vector<Regression> regressions;
  std::vector<std::string> missing_cells;  ///< in baseline, not in current
  std::vector<std::string> new_cells;      ///< in current, not in baseline
  [[nodiscard]] bool ok() const { return regressions.empty() && missing_cells.empty(); }
  [[nodiscard]] std::string to_markdown() const;
};

/// Compares two parsed MatrixReport JSON documents cell-by-cell (matched
/// on id). Throws std::invalid_argument when either document is not a
/// matrix report.
[[nodiscard]] CompareResult compare(const obs::json::JsonValue& baseline,
                                    const obs::json::JsonValue& current,
                                    const CompareThresholds& thresholds = {});

}  // namespace idgka::sim
