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

// --- Churn helpers shared by the single-scenario Run and the multi-group
// --- Group (identical rekey recording and membership-guard rules).

/// Records one rekey attempt; `kind_sample` is the per-kind latency vector
/// of the operation actually performed, feeding the JSON `latency` block.
void record_rekey(Metrics& metrics, const ProtocolDriver& driver, const OpOutcome& outcome,
                  std::vector<SimTime>& kind_sample) {
  ++metrics.rekeys_attempted;
  if (outcome.success && driver.agreed()) {
    ++metrics.rekeys_completed;
    metrics.op_latencies_us.all.push_back(outcome.latency_us());
    kind_sample.push_back(outcome.latency_us());
  }
}

void remove_members(ProtocolDriver& driver, Metrics& metrics,
                    std::vector<std::uint32_t> ids, std::size_t& event_counter) {
  std::erase_if(ids, [&](std::uint32_t id) { return !driver.contains(id); });
  // Protocols need >= 2 survivors; keep the overflow in the group.
  while (!ids.empty() && driver.size() - ids.size() < 2) ids.pop_back();
  if (ids.empty()) return;
  const bool single = ids.size() == 1;
  const OpOutcome outcome = single ? driver.leave(ids.front()) : driver.partition(ids);
  event_counter += ids.size();
  record_rekey(metrics, driver, outcome,
               single ? metrics.op_latencies_us.leave : metrics.op_latencies_us.partition);
}

/// `eligible` filters candidates beyond the already-a-member check (the
/// battery-backed scenario registers nodes and rejects dead ones; the
/// multi-group runner admits everyone).
void admit_members(ProtocolDriver& driver, Metrics& metrics, std::vector<std::uint32_t> ids,
                   std::size_t& event_counter,
                   const std::function<bool(std::uint32_t)>& eligible) {
  std::erase_if(ids, [&](std::uint32_t id) {
    return (eligible && !eligible(id)) || driver.contains(id);
  });
  if (ids.empty()) return;
  const bool single = ids.size() == 1;
  const OpOutcome outcome = single ? driver.join(ids.front()) : driver.admit(ids);
  event_counter += ids.size();
  record_rekey(metrics, driver, outcome,
               single ? metrics.op_latencies_us.join : metrics.op_latencies_us.merge);
}

void apply_trace_event(ProtocolDriver& driver, Metrics& metrics, TraceEvent::Kind kind,
                       std::vector<std::uint32_t> ids,
                       const std::function<bool(std::uint32_t)>& eligible) {
  switch (kind) {
    case TraceEvent::Kind::kJoin:
      admit_members(driver, metrics, {ids.front()}, metrics.events_join, eligible);
      break;
    case TraceEvent::Kind::kLeave:
      remove_members(driver, metrics, {ids.front()}, metrics.events_leave);
      break;
    case TraceEvent::Kind::kPartition:
      remove_members(driver, metrics, std::move(ids), metrics.events_partition);
      break;
    case TraceEvent::Kind::kMerge:
      admit_members(driver, metrics, std::move(ids), metrics.events_merge, eligible);
      break;
  }
}

struct Mobile {
  double x = 0.0;
  double y = 0.0;
  double wx = 0.0;
  double wy = 0.0;
  bool in_range = true;
};

/// Everything one run owns; lives exactly as long as run().
struct Run {
  const ScenarioConfig& cfg;
  Metrics metrics;

  // Captured before the authority runs prime generation so the delta covers
  // the whole run (declaration order matters).
  mpint::OpCounts ops_start;
  gka::Authority authority;
  Scheduler scheduler;
  ProtocolDriver driver;
  std::optional<gka::GroupSession> flat;
  std::optional<cluster::HierarchicalSession> hier;
  BatteryBank bank;

  mpint::XoshiroRng rng;
  std::map<std::uint32_t, Mobile> mobiles;
  std::set<std::uint32_t> known_ids;
  SimTime last_move_us = 0;

  explicit Run(const ScenarioConfig& config)
      : cfg(config),
        ops_start(mpint::op_counts()),
        authority(config.profile, config.seed),
        driver(scheduler, config.driver, config.seed ^ 0x73696d647276ULL),
        bank(config.power),
        rng(config.seed ^ 0x776179706f696e74ULL) {}

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

  void move_all(SimTime now) {
    const double dt = static_cast<double>(now - last_move_us) / static_cast<double>(kUsPerSec);
    last_move_us = now;
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
      bank.add_node(id, scheduler.now());
      if (cfg.waypoint.enabled) place(id, /*force_in_range=*/true);
    }
  }

  /// Folds every known node's energy up to `now`; returns in-session nodes
  /// that just died (they must be removed from the group).
  std::vector<std::uint32_t> sample_batteries(SimTime now) {
    std::vector<std::uint32_t> dead_members;
    for (const std::uint32_t id : known_ids) {
      const bool member = driver.contains(id);
      const bool died = member ? bank.update(id, driver.member_ledger(id), now)
                               : bank.tick(id, now);
      if (died && member) dead_members.push_back(id);
    }
    return dead_members;
  }

  /// Admission filter: register the node with the battery bank (and the
  /// mobility field) and reject it while its battery is dead.
  [[nodiscard]] std::function<bool(std::uint32_t)> admission() {
    return [this](std::uint32_t id) {
      register_node(id);
      return bank.alive(id);
    };
  }

  void apply_trace(const TraceEvent& event) {
    OBS_INSTANT_ARG("sim.trace_event", "sim", event.ids.size());
    apply_trace_event(driver, metrics, event.kind, event.ids, admission());
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
    remove_members(driver, metrics, std::move(outs), metrics.events_leave);
    admit_members(driver, metrics, std::move(ins), metrics.events_join, admission());
  }

  void handle_deaths(const std::vector<std::uint32_t>& dead_members) {
    if (!dead_members.empty()) {
      OBS_INSTANT_ARG("sim.death", "sim", dead_members.size());
    }
    remove_members(driver, metrics, dead_members, metrics.events_leave);
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
    const mpint::OpCounts ops_end = mpint::op_counts();
    metrics.crypto_exps = ops_end.exps - ops_start.exps;
    metrics.crypto_mod_muls = ops_end.mod_muls - ops_start.mod_muls;
    metrics.crypto_mod_sqrs = ops_end.mod_sqrs - ops_start.mod_sqrs;
    metrics.crypto_multi_exps = ops_end.multi_exps - ops_start.multi_exps;
    metrics.end_time_us = scheduler.now();
  }
};

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioConfig config) : cfg_(std::move(config)) {
  if (cfg_.initial_members < 2) {
    throw std::invalid_argument("Scenario: need at least 2 initial members");
  }
  if (cfg_.topology == Topology::kHierarchical) cfg_.cluster.validate();
  std::stable_sort(cfg_.trace.begin(), cfg_.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at_us < b.at_us; });
  for (const TraceEvent& event : cfg_.trace) {
    if (event.ids.empty()) throw std::invalid_argument("Scenario: trace event without ids");
  }
}

Metrics ScenarioRunner::run() {
  // Defensive: the named curves are lazily-initialized statics; force them
  // out of the crypto-counter window so that any counted work their setup
  // may ever perform cannot make the first run's delta differ from a
  // same-seed repeat in the same process.
  (void)ec::secp160r1();
  (void)ec::p256();

  Run run(cfg_);
#if IDGKA_OBS
  const obs::ScopedClock obs_clock(&scheduler_clock, &run.scheduler);
  const obs::Span obs_span("sim.scenario", "sim");
#endif
  run.metrics.scenario = cfg_.name;
  run.metrics.topology = cfg_.topology == Topology::kFlat ? "flat" : "hierarchical";
  run.metrics.seed = cfg_.seed;
  run.metrics.members_initial = cfg_.initial_members;

  std::vector<std::uint32_t> ids(cfg_.initial_members);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = cfg_.base_id + static_cast<std::uint32_t>(i);
  }
  if (cfg_.topology == Topology::kFlat) {
    run.flat.emplace(run.authority, cfg_.cluster.scheme, ids, cfg_.seed);
    run.driver.attach(*run.flat);
  } else {
    // Label the session's registry counters with the scenario name so
    // matrix cells running in one process stay distinguishable.
    cluster::ClusterConfig cluster_cfg = cfg_.cluster;
    if (cluster_cfg.label.empty()) cluster_cfg.label = cfg_.name;
    run.hier.emplace(run.authority, std::move(cluster_cfg), ids, cfg_.seed);
    run.driver.attach(*run.hier);
  }
  for (const std::uint32_t id : ids) run.register_node(id);

  const OpOutcome formed = run.driver.form();
  run.metrics.form_success = formed.success;
  run.metrics.form_latency_us = formed.latency_us();
  if (formed.success) run.metrics.op_latencies_us.all.push_back(formed.latency_us());
  if (!formed.success) {
    run.finalize();
    return run.metrics;
  }
  run.handle_deaths(run.sample_batteries(run.scheduler.now()));

  const bool ticking =
      cfg_.waypoint.enabled || (cfg_.power.depletes() && cfg_.power.idle_mw > 0.0);
  SimTime next_tick = ticking ? cfg_.waypoint.tick_us : 0;
  std::size_t trace_idx = 0;
  run.last_move_us = run.scheduler.now();

  while (!(cfg_.stop_on_first_death && run.bank.deaths() > 0)) {
    const bool have_trace = trace_idx < cfg_.trace.size();
    const bool have_tick = ticking && next_tick <= cfg_.duration_us;
    const bool trace_due =
        have_trace && cfg_.trace[trace_idx].at_us <= cfg_.duration_us &&
        (!have_tick || cfg_.trace[trace_idx].at_us <= next_tick);
    if (trace_due) {
      const TraceEvent& event = cfg_.trace[trace_idx++];
      run.scheduler.run_until(event.at_us);
      run.apply_trace(event);
    } else if (have_tick) {
      run.scheduler.run_until(next_tick);
      next_tick += cfg_.waypoint.tick_us;
      OBS_INSTANT("sim.tick", "sim");
      if (cfg_.waypoint.enabled) {
        run.move_all(run.scheduler.now());
        run.apply_mobility_churn();
      }
    } else {
      break;
    }
    run.handle_deaths(run.sample_batteries(run.scheduler.now()));
  }

  // A lifetime run ends at the first death; otherwise idle out the clock.
  if (!(cfg_.stop_on_first_death && run.bank.deaths() > 0)) {
    run.scheduler.run_until(cfg_.duration_us);
    run.handle_deaths(run.sample_batteries(run.scheduler.now()));
  }
  run.finalize();
  return run.metrics;
}

// ------------------------------------------------------------- Multi-group

namespace {

/// One group of a multi-group run: owns everything the group's ProtocolRun
/// body touches, so concurrent group bodies share only the executor.
struct Group {
  const MultiGroupConfig& cfg;
  std::size_t index;
  Metrics metrics;

  gka::Authority authority;
  ProtocolDriver driver;
  std::optional<gka::GroupSession> flat;
  std::optional<cluster::HierarchicalSession> hier;

  Group(const MultiGroupConfig& config, std::size_t g, engine::Executor& executor)
      : cfg(config),
        index(g),
        authority(config.profile, config.authority_seed(g)),
        driver(executor, config.driver, config.driver_seed(g)) {
    std::vector<std::uint32_t> ids(cfg.members_per_group);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = map_id(static_cast<std::uint32_t>(i));
    metrics.scenario = cfg.name + "/g" + std::to_string(g);
    if (cfg.topology == Topology::kFlat) {
      flat.emplace(authority, cfg.cluster.scheme, ids, cfg.session_seed(g));
      driver.attach(*flat);
    } else {
      // Per-group label ("name/gN") so concurrent groups' rekey counters
      // stay separable in the shared process registry.
      cluster::ClusterConfig cluster_cfg = cfg.cluster;
      if (cluster_cfg.label.empty()) cluster_cfg.label = metrics.scenario;
      hier.emplace(authority, std::move(cluster_cfg), ids, cfg.session_seed(g));
      driver.attach(*hier);
    }
    metrics.topology = cfg.topology == Topology::kFlat ? "flat" : "hierarchical";
    metrics.seed = cfg.seed;
    metrics.members_initial = cfg.members_per_group;
  }

  /// Offset in the template trace -> this group's id space.
  [[nodiscard]] std::uint32_t map_id(std::uint32_t offset) const {
    return cfg.group_base_id(index) + offset;
  }

  void apply_trace(const TraceEvent& event) {
    std::vector<std::uint32_t> ids;
    ids.reserve(event.ids.size());
    for (const std::uint32_t offset : event.ids) ids.push_back(map_id(offset));
    // No extra admission filter: the multi-group runner has no batteries.
    apply_trace_event(driver, metrics, event.kind, std::move(ids), nullptr);
  }

  /// The group's ProtocolRun body: form, then the (staggered) trace.
  void script(engine::ProtocolRun& run) {
    const SimTime t0 = static_cast<SimTime>(index) * cfg.stagger_us;
    if (t0 > 0) run.sleep_until(t0);
    const OpOutcome formed = driver.form();
    metrics.form_success = formed.success;
    metrics.form_latency_us = formed.latency_us();
    if (formed.success) {
      metrics.op_latencies_us.all.push_back(formed.latency_us());
      for (const TraceEvent& event : cfg.trace) {
        run.sleep_until(event.at_us + t0);
        apply_trace(event);
      }
    }
    finalize(run.now());
  }

  void finalize(SimTime now) {
    metrics.members_final = driver.size();
    metrics.clusters_final = driver.cluster_count();
    metrics.all_members_agree = driver.agreed();
    metrics.frames_on_air = driver.frames_on_air();
    metrics.bits_on_air = driver.bits_on_air();
    metrics.encoded_bits_on_air = driver.encoded_bits_on_air();
    metrics.copies_dropped = driver.copies_dropped();
    metrics.bits_dropped = driver.bits_dropped();
    metrics.end_time_us = now;
  }
};

}  // namespace

MultiGroupRunner::MultiGroupRunner(MultiGroupConfig config) : cfg_(std::move(config)) {
  if (cfg_.groups < 1) throw std::invalid_argument("MultiGroup: need at least 1 group");
  if (cfg_.members_per_group < 2) {
    throw std::invalid_argument("MultiGroup: need at least 2 members per group");
  }
  if (cfg_.id_stride <= cfg_.members_per_group) {
    throw std::invalid_argument("MultiGroup: id_stride must exceed members_per_group");
  }
  if (cfg_.topology == Topology::kHierarchical) cfg_.cluster.validate();
  std::stable_sort(cfg_.trace.begin(), cfg_.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at_us < b.at_us; });
  for (const TraceEvent& event : cfg_.trace) {
    if (event.ids.empty()) throw std::invalid_argument("MultiGroup: trace event without ids");
  }
}

MultiGroupMetrics MultiGroupRunner::run() {
  // Same static-initialization hygiene as ScenarioRunner::run().
  (void)ec::secp160r1();
  (void)ec::p256();

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
    groups.push_back(std::make_unique<Group>(cfg_, g, executor));
  }
  for (const auto& group : groups) {
    executor.submit(group->metrics.scenario,
                    [grp = group.get()](engine::ProtocolRun& run) { grp->script(run); });
  }
  executor.drain();

  MultiGroupMetrics metrics;
  metrics.scenario = cfg_.name;
  metrics.seed = cfg_.seed;
  metrics.per_group.reserve(groups.size());
  for (const auto& group : groups) metrics.per_group.push_back(std::move(group->metrics));
  metrics.engine_resumes = executor.resumes();
  metrics.max_concurrent_runs = executor.max_batch();
  metrics.end_time_us = scheduler.now();
  const mpint::OpCounts ops_end = mpint::op_counts();
  metrics.crypto_exps = ops_end.exps - ops_start.exps;
  metrics.crypto_mod_muls = ops_end.mod_muls - ops_start.mod_muls;
  metrics.crypto_mod_sqrs = ops_end.mod_sqrs - ops_start.mod_sqrs;
  metrics.crypto_multi_exps = ops_end.multi_exps - ops_start.multi_exps;
  return metrics;
}

}  // namespace idgka::sim
