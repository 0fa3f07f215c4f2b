#include "sim/scenario.h"

#include "ec/curve.h"
#include "mpint/mod_context.h"
#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

namespace idgka::sim {

namespace {

#if IDGKA_OBS
/// Trace clock over the run's scheduler, so every event of a sim run
/// carries virtual time and same-seed runs export byte-identical traces.
/// Reads Scheduler::now(), a lock-free atomic load: run bodies stamp their
/// events with it while they execute, and the clock only advances
/// on the host thread while every run is parked, so each stamp is a pure
/// function of the workload.
std::uint64_t scheduler_clock(const void* ctx) {
  return static_cast<std::uint64_t>(static_cast<const Scheduler*>(ctx)->now());
}
#endif

struct Mobile {
  double x = 0.0;
  double y = 0.0;
  double wx = 0.0;
  double wy = 0.0;
  bool in_range = true;
};

struct GroupSeeds {
  std::uint64_t authority;
  std::uint64_t driver;
  std::uint64_t session;
};

/// One group: owns everything its ProtocolRun script touches, so the
/// groups of a multi-group run share only the executor.
struct Group {
  const ScenarioConfig cfg;
  /// Virtual time the group forms at.
  const SimTime start_us;
  Metrics metrics;

  gka::Authority authority;
  ProtocolDriver driver;
  std::optional<gka::GroupSession> flat;
  std::optional<cluster::HierarchicalSession> hier;
  BatteryBank bank;

  mpint::XoshiroRng rng;
  std::map<std::uint32_t, Mobile> mobiles;
  std::set<std::uint32_t> known_ids;
  SimTime last_move_us = 0;

  Group(ScenarioConfig config, SimTime start, const GroupSeeds& seeds,
        engine::Executor& executor)
      : cfg(std::move(config)),
        start_us(start),
        authority(cfg.profile, seeds.authority),
        driver(executor, cfg.driver, seeds.driver),
        bank(cfg.power),
        rng(seeds.session ^ 0x776179706f696e74ULL) {
    metrics.scenario = cfg.name;
    metrics.topology = cfg.topology == Topology::kFlat ? "flat" : "hierarchical";
    metrics.seed = cfg.seed;
    metrics.members_initial = cfg.initial_members;
    if (cfg.topology == Topology::kFlat) {
      flat.emplace(authority, gka::Scheme::kProposed, initial_ids(), seeds.session);
      driver.attach(*flat);
    } else {
      // Label the session's registry counters with the group's name so
      // matrix cells and concurrent groups in one process stay separable.
      cluster::ClusterConfig cluster_cfg = cfg.cluster;
      if (cluster_cfg.label.empty()) cluster_cfg.label = cfg.name;
      hier.emplace(authority, std::move(cluster_cfg), initial_ids(), seeds.session);
      driver.attach(*hier);
    }
  }

  [[nodiscard]] std::vector<std::uint32_t> initial_ids() const {
    std::vector<std::uint32_t> ids(cfg.initial_members);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = cfg.base_id + static_cast<std::uint32_t>(i);
    }
    return ids;
  }

  [[nodiscard]] SimTime now() { return driver.executor().now(); }

  [[nodiscard]] bool stopped() const { return cfg.stop_on_first_death && bank.deaths() > 0; }

  double uniform() { return rng.next_double(); }

  [[nodiscard]] double base() const { return cfg.waypoint.field_m / 2.0; }

  [[nodiscard]] bool in_range(const Mobile& m) const {
    const double dx = m.x - base();
    const double dy = m.y - base();
    return std::sqrt(dx * dx + dy * dy) <= cfg.waypoint.range_m;
  }

  void place(std::uint32_t id, bool force_in_range) {
    Mobile m;
    for (int attempt = 0; attempt < 64; ++attempt) {
      m.x = uniform() * cfg.waypoint.field_m;
      m.y = uniform() * cfg.waypoint.field_m;
      if (!force_in_range || in_range(m)) break;
    }
    m.wx = uniform() * cfg.waypoint.field_m;
    m.wy = uniform() * cfg.waypoint.field_m;
    m.in_range = in_range(m);
    mobiles[id] = m;
  }

  void move_all(SimTime t) {
    const double dt = static_cast<double>(t - last_move_us) / static_cast<double>(kUsPerSec);
    last_move_us = t;
    if (dt <= 0.0) return;
    for (auto& [id, m] : mobiles) {
      double budget = cfg.waypoint.speed_mps * dt;
      for (int leg = 0; leg < 8 && budget > 0.0; ++leg) {
        const double dx = m.wx - m.x;
        const double dy = m.wy - m.y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist <= budget) {
          m.x = m.wx;
          m.y = m.wy;
          budget -= dist;
          m.wx = uniform() * cfg.waypoint.field_m;
          m.wy = uniform() * cfg.waypoint.field_m;
        } else {
          m.x += dx / dist * budget;
          m.y += dy / dist * budget;
          budget = 0.0;
        }
      }
      m.in_range = in_range(m);
    }
  }

  void register_node(std::uint32_t id) {
    if (known_ids.insert(id).second) {
      bank.add_node(id, now());
      if (cfg.waypoint.enabled) place(id, /*force_in_range=*/true);
    }
  }

  /// Folds every known node's energy up to now; returns in-session nodes
  /// that just died (they must be removed from the group).
  std::vector<std::uint32_t> sample_batteries() {
    const SimTime t = now();
    std::vector<std::uint32_t> dead_members;
    for (const std::uint32_t id : known_ids) {
      const bool member = driver.contains(id);
      const bool died = member ? bank.update(id, driver.member_ledger(id), t)
                               : bank.tick(id, t);
      if (died && member) dead_members.push_back(id);
    }
    return dead_members;
  }

  /// Records one rekey attempt; `kind_sample` is the per-kind latency
  /// vector of the operation actually performed, feeding the JSON
  /// `latency` block.
  void record_rekey(const OpOutcome& outcome, std::vector<SimTime>& kind_sample) {
    ++metrics.rekeys_attempted;
    if (outcome.success && driver.agreed()) {
      ++metrics.rekeys_completed;
      metrics.op_latencies_us.all.push_back(outcome.latency_us());
      kind_sample.push_back(outcome.latency_us());
    }
  }

  void remove_members(std::vector<std::uint32_t> ids, std::size_t& event_counter) {
    std::erase_if(ids, [&](std::uint32_t id) { return !driver.contains(id); });
    // Protocols need >= 2 survivors; keep the overflow in the group.
    while (!ids.empty() && driver.size() - ids.size() < 2) ids.pop_back();
    if (ids.empty()) return;
    const bool single = ids.size() == 1;
    const OpOutcome outcome = single ? driver.leave(ids.front()) : driver.partition(ids);
    event_counter += ids.size();
    record_rekey(outcome,
                 single ? metrics.op_latencies_us.leave : metrics.op_latencies_us.partition);
  }

  /// Registers every candidate with the batteries (and the mobility field)
  /// and admits those alive and not yet members.
  void admit_members(std::vector<std::uint32_t> ids, std::size_t& event_counter) {
    std::erase_if(ids, [&](std::uint32_t id) {
      register_node(id);
      return !bank.alive(id) || driver.contains(id);
    });
    if (ids.empty()) return;
    const bool single = ids.size() == 1;
    const OpOutcome outcome = single ? driver.join(ids.front()) : driver.admit(ids);
    event_counter += ids.size();
    record_rekey(outcome, single ? metrics.op_latencies_us.join : metrics.op_latencies_us.merge);
  }

  void apply_trace(const TraceEvent& event) {
    OBS_INSTANT_ARG("sim.trace_event", "sim", event.ids.size());
    switch (event.kind) {
      case TraceEvent::Kind::kJoin:
        admit_members({event.ids.front()}, metrics.events_join);
        break;
      case TraceEvent::Kind::kLeave:
        remove_members({event.ids.front()}, metrics.events_leave);
        break;
      case TraceEvent::Kind::kPartition:
        remove_members(event.ids, metrics.events_partition);
        break;
      case TraceEvent::Kind::kMerge:
        admit_members(event.ids, metrics.events_merge);
        break;
    }
  }

  void apply_mobility_churn() {
    std::vector<std::uint32_t> outs;
    std::vector<std::uint32_t> ins;
    for (const auto& [id, m] : mobiles) {
      if (!bank.alive(id)) continue;
      const bool member = driver.contains(id);
      if (member && !m.in_range) outs.push_back(id);
      if (!member && m.in_range) ins.push_back(id);
    }
    remove_members(std::move(outs), metrics.events_leave);
    admit_members(std::move(ins), metrics.events_join);
  }

  void handle_deaths() {
    const std::vector<std::uint32_t> dead_members = sample_batteries();
    if (!dead_members.empty()) {
      OBS_INSTANT_ARG("sim.death", "sim", dead_members.size());
    }
    remove_members(dead_members, metrics.events_leave);
  }

  /// The group's ProtocolRun body: sleep to the start, form, play the trace
  /// and the mobility/battery ticks in timestamp order up to duration_us,
  /// idle out the clock, then finalize.
  void script(engine::ProtocolRun& run) {
    run.sleep_until(start_us);
    for (const std::uint32_t id : initial_ids()) register_node(id);
    const OpOutcome formed = driver.form();
    metrics.form_success = formed.success;
    metrics.form_latency_us = formed.latency_us();
    if (formed.success) {
      metrics.op_latencies_us.all.push_back(formed.latency_us());
      play(run);
    }
    finalize();
  }

  void play(engine::ProtocolRun& run) {
    handle_deaths();
    const bool ticking =
        cfg.waypoint.enabled || (cfg.power.depletes() && cfg.power.idle_mw > 0.0);
    SimTime next_tick = start_us + cfg.waypoint.tick_us;
    std::size_t trace_idx = 0;
    last_move_us = now();

    while (!stopped()) {
      const bool have_trace = trace_idx < cfg.trace.size();
      const bool have_tick = ticking && next_tick <= cfg.duration_us;
      const bool trace_due =
          have_trace && cfg.trace[trace_idx].at_us <= cfg.duration_us &&
          (!have_tick || cfg.trace[trace_idx].at_us <= next_tick);
      if (trace_due) {
        const TraceEvent& event = cfg.trace[trace_idx++];
        run.sleep_until(event.at_us);
        apply_trace(event);
      } else if (have_tick) {
        run.sleep_until(next_tick);
        next_tick += cfg.waypoint.tick_us;
        OBS_INSTANT("sim.tick", "sim");
        if (cfg.waypoint.enabled) {
          move_all(now());
          apply_mobility_churn();
        }
      } else {
        break;
      }
      handle_deaths();
    }

    // A lifetime run ends at the first death; otherwise idle out the clock.
    if (!stopped()) {
      run.sleep_until(cfg.duration_us);
      handle_deaths();
    }
  }

  void finalize() {
    metrics.members_final = driver.size();
    metrics.clusters_final = driver.cluster_count();
    metrics.all_members_agree = driver.agreed();
    metrics.frames_on_air = driver.frames_on_air();
    metrics.bits_on_air = driver.bits_on_air();
    metrics.encoded_bits_on_air = driver.encoded_bits_on_air();
    metrics.copies_dropped = driver.copies_dropped();
    metrics.bits_dropped = driver.bits_dropped();
    metrics.deaths = bank.deaths();
    metrics.first_death_us = bank.first_death_us();
    metrics.energy_total_mj = bank.total_consumed_mj();
    metrics.end_time_us = now();
  }
};

/// Sorts the trace and rejects configs no group can run.
void prepare(ScenarioConfig& cfg) {
  if (cfg.initial_members < 2) {
    throw std::invalid_argument("Scenario: need at least 2 initial members");
  }
  if (cfg.topology == Topology::kHierarchical) cfg.cluster.validate();
  std::stable_sort(cfg.trace.begin(), cfg.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at_us < b.at_us; });
  for (const TraceEvent& event : cfg.trace) {
    if (event.ids.empty()) throw std::invalid_argument("Scenario: trace event without ids");
  }
}

/// Crypto work since `start`, into a Metrics or MultiGroupMetrics. The
/// counters are process-wide, so only a whole run is attributed.
template <typename M>
void record_crypto(M& metrics, const mpint::OpCounts& start) {
  const mpint::OpCounts end = mpint::op_counts();
  metrics.crypto_exps = end.exps - start.exps;
  metrics.crypto_mod_muls = end.mod_muls - start.mod_muls;
  metrics.crypto_mod_sqrs = end.mod_sqrs - start.mod_sqrs;
  metrics.crypto_multi_exps = end.multi_exps - start.multi_exps;
}

/// The named curves are lazily-initialized statics; force them out of the
/// crypto-counter window so that any counted work their setup may ever
/// perform cannot make the first run's delta differ from a same-seed
/// repeat in the same process.
void touch_curves() {
  (void)ec::secp160r1();
  (void)ec::p256();
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioConfig config) : cfg_(std::move(config)) {
  prepare(cfg_);
}

Metrics ScenarioRunner::run() {
  touch_curves();
  const mpint::OpCounts ops_start = mpint::op_counts();
  Scheduler scheduler;
  engine::Executor executor(scheduler);
#if IDGKA_OBS
  const obs::ScopedClock obs_clock(&scheduler_clock, &scheduler);
  const obs::Span obs_span("sim.scenario", "sim");
#endif
  Group group(cfg_, 0, {cfg_.seed, cfg_.seed ^ 0x73696d647276ULL, cfg_.seed}, executor);
  executor.submit(cfg_.name, [&group](engine::ProtocolRun& run) { group.script(run); });
  executor.drain();
  Metrics metrics = std::move(group.metrics);
  record_crypto(metrics, ops_start);
  return metrics;
}

// ------------------------------------------------------------- Multi-group

ScenarioConfig MultiGroupConfig::group(std::size_t g) const {
  ScenarioConfig cfg = scenario;
  const auto id_shift = static_cast<std::uint32_t>(g) * kGroupIdStride;
  const SimTime shift = static_cast<SimTime>(g) * stagger_us;
  cfg.name += "/g" + std::to_string(g);
  cfg.base_id += id_shift;
  cfg.duration_us += shift;
  for (TraceEvent& event : cfg.trace) {
    event.at_us += shift;
    for (std::uint32_t& id : event.ids) id += id_shift;
  }
  return cfg;
}

MultiGroupRunner::MultiGroupRunner(MultiGroupConfig config) : cfg_(std::move(config)) {
  if (cfg_.groups < 1) throw std::invalid_argument("MultiGroup: need at least 1 group");
  prepare(cfg_.scenario);
  const auto outside = [this](std::uint64_t id) {
    return id < cfg_.scenario.base_id ||
           id >= std::uint64_t{cfg_.scenario.base_id} + kGroupIdStride;
  };
  bool bad = outside(std::uint64_t{cfg_.scenario.base_id} + cfg_.scenario.initial_members - 1);
  for (const TraceEvent& event : cfg_.scenario.trace) {
    for (const std::uint32_t id : event.ids) bad = bad || outside(id);
  }
  if (bad) {
    throw std::invalid_argument(
        "MultiGroup: template ids must lie in [base_id, base_id + kGroupIdStride)");
  }
}

MultiGroupMetrics MultiGroupRunner::run() {
  touch_curves();
  const mpint::OpCounts ops_start = mpint::op_counts();
  Scheduler scheduler;
  engine::Executor executor(scheduler);
#if IDGKA_OBS
  const obs::ScopedClock obs_clock(&scheduler_clock, &scheduler);
  const obs::Span obs_span("sim.multigroup", "sim");
#endif

  // Group construction is serial and not cheap: each group's Authority runs
  // the paper's Setup (prime searches for p, q and n) and every member's GQ
  // enrollment, which on short runs rivals the protocol work. Bodies then
  // only touch their own group + the executor.
  std::vector<std::unique_ptr<Group>> groups;
  groups.reserve(cfg_.groups);
  for (std::size_t g = 0; g < cfg_.groups; ++g) {
    groups.push_back(std::make_unique<Group>(
        cfg_.group(g), static_cast<SimTime>(g) * cfg_.stagger_us,
        GroupSeeds{cfg_.authority_seed(g), cfg_.driver_seed(g), cfg_.session_seed(g)},
        executor));
  }
  for (const auto& group : groups) {
    executor.submit(group->cfg.name,
                    [grp = group.get()](engine::ProtocolRun& run) { grp->script(run); });
  }
  executor.drain();

  MultiGroupMetrics metrics;
  metrics.scenario = cfg_.scenario.name;
  metrics.seed = cfg_.scenario.seed;
  metrics.per_group.reserve(groups.size());
  for (const auto& group : groups) metrics.per_group.push_back(std::move(group->metrics));
  metrics.engine_resumes = executor.resumes();
  metrics.max_concurrent_runs = executor.max_batch();
  metrics.end_time_us = scheduler.now();
  record_crypto(metrics, ops_start);
  return metrics;
}

}  // namespace idgka::sim
