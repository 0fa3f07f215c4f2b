// Per-run scenario metrics and their deterministic JSON serialization.
//
// Everything here is a pure function of the scenario config and seeds: no
// wall-clock time, no pointers, integer microsecond timestamps, and doubles
// printed with a fixed format — so two same-seed runs emit bit-identical
// JSON (which the determinism test and the bench assert).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace idgka::sim {

/// Nearest-rank summary of one latency sample (all zero when empty). Every
/// latency block of the metrics JSON has exactly these fields —
/// `{"count","p50_us","p90_us","p99_us","max_us"}` — and the benches print
/// from the same summary.
struct LatencySummary {
  std::size_t count = 0;
  SimTime p50_us = 0;
  SimTime p90_us = 0;
  SimTime p99_us = 0;
  SimTime max_us = 0;
};
[[nodiscard]] LatencySummary summarize_latency(std::vector<SimTime> sample);

struct Metrics {
  std::string scenario;
  std::string topology;
  std::uint64_t seed = 0;

  std::size_t members_initial = 0;
  std::size_t members_final = 0;
  std::size_t clusters_final = 0;  ///< 1 for flat topologies

  /// Initial key agreement.
  bool form_success = false;
  SimTime form_latency_us = 0;

  /// Membership-event rekeys (everything after form).
  std::size_t rekeys_attempted = 0;
  std::size_t rekeys_completed = 0;
  std::size_t events_join = 0;
  std::size_t events_leave = 0;
  std::size_t events_partition = 0;
  std::size_t events_merge = 0;
  /// Per-operation latency samples feeding the JSON `latency` block:
  /// `all` covers every completed operation including form; the per-kind
  /// vectors split the completed rekeys by membership-event kind, in event
  /// order.
  struct OpLatencies {
    std::vector<SimTime> all;
    std::vector<SimTime> join;
    std::vector<SimTime> leave;
    std::vector<SimTime> partition;
    std::vector<SimTime> merge;
  };
  OpLatencies op_latencies_us;

  /// On-air accounting (per transmission, not per copy) and per-copy drops.
  /// bits_on_air is paper-accounted; encoded_bits_on_air is the codec-true
  /// total of the canonical frames actually serialized.
  std::uint64_t frames_on_air = 0;
  std::uint64_t bits_on_air = 0;
  std::uint64_t encoded_bits_on_air = 0;
  std::uint64_t copies_dropped = 0;
  std::uint64_t bits_dropped = 0;

  /// Battery integration.
  std::size_t deaths = 0;
  std::optional<SimTime> first_death_us;
  double energy_total_mj = 0.0;

  /// Crypto work performed by the run (mpint::op_counts deltas, covering
  /// authority setup + every protocol execution) — separates big-integer
  /// cost from event-loop cost in bench trajectories. The counters are
  /// process-wide, so a group of a multi-group run reports 0 here and
  /// MultiGroupMetrics carries the run's total.
  std::uint64_t crypto_exps = 0;
  std::uint64_t crypto_mod_muls = 0;
  std::uint64_t crypto_mod_sqrs = 0;
  std::uint64_t crypto_multi_exps = 0;

  bool all_members_agree = false;
  SimTime end_time_us = 0;

  [[nodiscard]] double convergence() const {
    return rekeys_attempted == 0
               ? 1.0
               : static_cast<double>(rekeys_completed) / static_cast<double>(rekeys_attempted);
  }

  /// One-line deterministic JSON object.
  [[nodiscard]] std::string to_json() const;
};

/// Metrics of one multi-group run: M independent clusters with overlapping
/// churn traces interleaved by the engine on one virtual clock. Per-group
/// metrics are ordinary Metrics (deterministic regardless of worker
/// count); the aggregate block sums them and adds engine bookkeeping.
struct MultiGroupMetrics {
  std::string scenario;
  std::uint64_t seed = 0;
  std::vector<Metrics> per_group;

  /// Engine bookkeeping: total ProtocolRun resumptions and the widest
  /// same-instant batch (> 1 proves rounds of independent groups
  /// genuinely interleaved).
  std::uint64_t engine_resumes = 0;
  std::size_t max_concurrent_runs = 0;

  /// Crypto work across the whole run (all groups + authority setup).
  std::uint64_t crypto_exps = 0;
  std::uint64_t crypto_mod_muls = 0;
  std::uint64_t crypto_mod_sqrs = 0;
  std::uint64_t crypto_multi_exps = 0;
  /// Clock value when the last group settled.
  SimTime end_time_us = 0;

  // --- Aggregates over per_group ---
  [[nodiscard]] std::size_t rekeys_attempted() const;
  [[nodiscard]] std::size_t rekeys_completed() const;
  [[nodiscard]] double convergence() const;
  [[nodiscard]] bool all_groups_agree() const;
  /// Every group's per-operation latency samples, in group order.
  [[nodiscard]] std::vector<SimTime> all_op_latencies_us() const;

  /// One-line deterministic JSON: aggregate block + per-group array.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace idgka::sim
