// Declarative scenario runner: churn traces + mobility over the sim engine.
//
// A scenario is one group: its own authority, session (flat or
// hierarchical), timed driver, batteries and mobility field, so a run is a
// pure function of its config: two runs of the same config emit
// bit-identical metrics JSON. The group runs as one engine::ProtocolRun
// script: form, then play the churn in timestamp order up to duration_us,
// then idle out the clock. A multi-group run hosts N copies of that same
// script on one executor.
//
// Membership churn comes from two composable sources, applied in timestamp
// order:
//   * an explicit trace of events (join/leave/partition/merge-style batch
//     re-admission at virtual timestamps);
//   * random-waypoint mobility: every node walks a square field at constant
//     speed toward uniformly re-drawn waypoints; nodes outside the base
//     station's radio range drop out of the group and re-join when they
//     wander back in. Evaluated at a fixed tick.
// Batteries are sampled after every operation and at every tick; a node
// whose battery depletes dies and is removed from the group (one more
// rekey), and first-node-death time is reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "gka/params.h"
#include "sim/battery.h"
#include "sim/driver.h"
#include "sim/metrics.h"

namespace idgka::sim {

enum class Topology { kFlat, kHierarchical };

/// One declarative churn event.
struct TraceEvent {
  enum class Kind { kJoin, kLeave, kPartition, kMerge };
  SimTime at_us = 0;
  Kind kind = Kind::kJoin;
  /// kJoin/kLeave use ids.front(); kPartition departs the batch at once;
  /// kMerge (re-)admits the batch at once (a departed subgroup coming back
  /// into radio contact).
  std::vector<std::uint32_t> ids;
};

struct WaypointConfig {
  bool enabled = false;
  /// Square field side (metres); the base station sits at the centre.
  double field_m = 1000.0;
  /// Radio range from the base station; outside = out of the group.
  double range_m = 600.0;
  double speed_mps = 5.0;
  /// Mobility / battery-sampling tick.
  SimTime tick_us = 5 * kUsPerSec;
};

struct ScenarioConfig {
  std::string name = "scenario";
  Topology topology = Topology::kHierarchical;
  gka::SecurityProfile profile = gka::SecurityProfile::kTiny;
  std::size_t initial_members = 16;
  /// Initial members are base_id, base_id + 1, ...
  std::uint32_t base_id = 1000;
  std::uint64_t seed = 1;
  SimTime duration_us = 60 * kUsPerSec;
  /// End the run at the first battery death (sensor-lifetime experiments).
  bool stop_on_first_death = false;

  DriverConfig driver;
  /// Hierarchical sharding knobs. Every session, flat or hierarchical,
  /// runs the proposed scheme.
  cluster::ClusterConfig cluster;
  PowerConfig power;
  WaypointConfig waypoint;
  /// Explicit churn; sorted by at_us internally (stable for equal stamps).
  std::vector<TraceEvent> trace;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioConfig config);

  /// Executes the scenario once and returns its metrics.
  [[nodiscard]] Metrics run();

 private:
  ScenarioConfig cfg_;
};

/// Id-space stride between the groups of a multi-group run: group g's ids
/// are the template's ids plus g * kGroupIdStride.
inline constexpr std::uint32_t kGroupIdStride = 100'000;

/// Multi-group scenario: `groups` copies of one scenario template, each
/// with its own authority, session, driver, batteries and RNG streams, run
/// on ONE virtual clock. Every group is the scenario script as an
/// engine::ProtocolRun on a shared Executor, so rounds of different groups
/// interleave by virtual-time events (and execute in parallel across the
/// worker pool when their wakes coincide). Results are deterministic under
/// the seed for any IDGKA_THREADS value: each group owns all of its mutable
/// state, and the shared clock orders wakes FIFO per timestamp.
struct MultiGroupConfig {
  /// The template. Its ids (initial members and trace) must lie in
  /// [base_id, base_id + kGroupIdStride). Group g is the template named
  /// "<name>/g<g>", its ids shifted by g * kGroupIdStride, and its start,
  /// trace and duration_us shifted by g * stagger_us — overlapping rather
  /// than identical schedules across groups.
  ScenarioConfig scenario;
  std::size_t groups = 4;
  SimTime stagger_us = 0;

  /// Group g's scenario (see `scenario`).
  [[nodiscard]] ScenarioConfig group(std::size_t g) const;

  // --- Per-group seed derivations (single source of truth; the concurrency
  // --- bench replays these to build its sequential baseline, so the two
  // --- legs run identical RNG streams) ---
  /// Distinct authority parameters/credentials per group.
  [[nodiscard]] std::uint64_t authority_seed(std::size_t g) const {
    return scenario.seed + 0x9e3779b97f4a7c15ULL * (g + 1);
  }
  /// Link-model RNG stream of group g's driver.
  [[nodiscard]] std::uint64_t driver_seed(std::size_t g) const {
    return scenario.seed ^ (0x6d67727670ULL + g);
  }
  /// Member-DRBG seed of group g's session (and, mixed, its mobility RNG).
  [[nodiscard]] std::uint64_t session_seed(std::size_t g) const { return scenario.seed + g; }
};

class MultiGroupRunner {
 public:
  explicit MultiGroupRunner(MultiGroupConfig config);

  /// Executes all groups to completion on one clock and returns per-group
  /// + aggregate metrics.
  [[nodiscard]] MultiGroupMetrics run();

 private:
  MultiGroupConfig cfg_;
};

}  // namespace idgka::sim
