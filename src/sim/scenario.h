// Declarative scenario runner: churn traces + mobility over the sim engine.
//
// A Scenario owns everything a run needs — authority, session (flat or
// hierarchical), scheduler, timed driver, batteries — so a run is a pure
// function of its config: two runs of the same config emit bit-identical
// metrics JSON.
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
  std::uint32_t base_id = 1000;
  std::uint64_t seed = 1;
  SimTime duration_us = 60 * kUsPerSec;
  /// End the run at the first battery death (sensor-lifetime experiments).
  bool stop_on_first_death = false;

  DriverConfig driver;
  /// Hierarchical sharding knobs; `cluster.scheme` also selects the flat
  /// scheme.
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

/// Multi-group scenario: M independent clusters — each with its own
/// authority, session, timed driver and link RNG — run overlapping churn
/// traces on ONE virtual clock. Every group is an engine::ProtocolRun on a
/// shared Executor, so rounds of different groups interleave by
/// virtual-time events (and execute in parallel across the worker pool
/// when their wakes coincide). Results are deterministic under the seed
/// for any IDGKA_THREADS value: each group owns all of its mutable state,
/// and the shared clock orders wakes FIFO per timestamp.
struct MultiGroupConfig {
  std::string name = "multi";
  std::size_t groups = 4;
  Topology topology = Topology::kFlat;
  gka::SecurityProfile profile = gka::SecurityProfile::kTiny;
  std::size_t members_per_group = 8;
  std::uint32_t base_id = 1000;
  /// Id-space stride between groups: group g's members start at
  /// base_id + g * id_stride. Must comfortably exceed members_per_group
  /// plus any joiner offsets used in the trace.
  std::uint32_t id_stride = 100'000;
  std::uint64_t seed = 1;

  DriverConfig driver;
  /// Hierarchical sharding knobs; `cluster.scheme` also selects the flat
  /// scheme.
  cluster::ClusterConfig cluster;

  /// Template churn trace every group runs in its own id space: event ids
  /// are OFFSETS (offset < members_per_group names an initial member;
  /// larger offsets name joiners), mapped to base_id + g*id_stride +
  /// offset for group g. Sorted by at_us internally (stable).
  std::vector<TraceEvent> trace;
  /// Group g starts (forms and fires its trace) shifted by g * stagger_us
  /// — overlapping rather than identical schedules across groups.
  SimTime stagger_us = 0;

  // --- Per-group derivations (single source of truth; the concurrency
  // --- bench replays these to build its sequential baseline, so the two
  // --- legs run identical RNG streams) ---
  /// Distinct authority parameters/credentials per group.
  [[nodiscard]] std::uint64_t authority_seed(std::size_t g) const {
    return seed + 0x9e3779b97f4a7c15ULL * (g + 1);
  }
  /// Link-model RNG stream of group g's driver.
  [[nodiscard]] std::uint64_t driver_seed(std::size_t g) const {
    return seed ^ (0x6d67727670ULL + g);
  }
  /// Member-DRBG seed of group g's session.
  [[nodiscard]] std::uint64_t session_seed(std::size_t g) const { return seed + g; }
  /// First member id of group g's id space.
  [[nodiscard]] std::uint32_t group_base_id(std::size_t g) const {
    return base_id + static_cast<std::uint32_t>(g) * id_stride;
  }
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
