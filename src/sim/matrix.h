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
// bytes; pinned by sim_matrix_test) and to a markdown summary table. CI
// diffs the smoke sweep's JSON against a committed baseline with
// tools/bench_compare, which requires every leaf to match exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace idgka::sim
