// Discrete-event engine tests: scheduler ordering, link model, battery
// integration, the timed protocol driver over flat and hierarchical
// sessions, and scenario determinism (same seed => bit-identical JSON).
#include <gtest/gtest.h>

#include <set>

#include "obs/json_reader.h"
#include "sim/battery.h"
#include "sim/driver.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/scheduler.h"

namespace idgka::sim {
namespace {

// ---------------------------------------------------------------- Scheduler

TEST(Scheduler, RunsEventsInTimeThenInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(200, [&] { order.push_back(3); });
  sched.at(100, [&] { order.push_back(1); });
  sched.at(100, [&] { order.push_back(2); });  // tie: insertion order
  sched.run_until(150);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 150U);
  EXPECT_EQ(sched.next_event_time(), SimTime{200});
  sched.run_until(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.executed(), 3U);
}

TEST(Scheduler, EventsMayScheduleWithinTheWindow) {
  Scheduler sched;
  std::vector<SimTime> stamps;
  sched.at(10, [&] {
    stamps.push_back(sched.now());
    sched.after(5, [&] { stamps.push_back(sched.now()); });
  });
  sched.run_until(100);
  EXPECT_EQ(stamps, (std::vector<SimTime>{10, 15}));
  EXPECT_EQ(sched.now(), 100U);
}

// Regression pin: equal-timestamp events run strictly in insertion (FIFO)
// order, including events inserted *while* the timestamp is being drained
// (they append after every already-queued event at that time) and events
// scheduled into the past (clamped to now, still FIFO). The engine
// executor's determinism — run wake-ups are ordinary scheduler events —
// depends on exactly this ordering.
TEST(Scheduler, SameTimestampEventsAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  constexpr int kEvents = 32;
  for (int i = 0; i < kEvents; ++i) {
    sched.at(700, [&order, i] { order.push_back(i); });
  }
  // A same-timestamp cascade scheduled by the FIRST event must run after
  // every pre-queued 700-stamped event, in its own insertion order.
  sched.at(700, [&] {
    sched.at(700, [&] { order.push_back(1000); });
    sched.at(500, [&] { order.push_back(1001); });  // past: clamps to 700
  });
  sched.run_until(700);

  // The 32 pre-queued events run 0..31; the cascade parent (queued after
  // them) then fires and its children append FIFO behind everything.
  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) expected.push_back(i);
  expected.push_back(1000);
  expected.push_back(1001);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.next_event_time(), std::nullopt);
}

TEST(Scheduler, NextEventTimeReportsEarliestPending) {
  Scheduler sched;
  EXPECT_EQ(sched.next_event_time(), std::nullopt);
  sched.at(300, [] {});
  sched.at(100, [] {});
  ASSERT_TRUE(sched.next_event_time().has_value());
  EXPECT_EQ(*sched.next_event_time(), 100U);
  sched.run_until(100);
  EXPECT_EQ(*sched.next_event_time(), 300U);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler sched;
  sched.run_until(50);
  SimTime fired = 0;
  sched.at(10, [&] { fired = sched.now(); });  // in the past: runs "now"
  EXPECT_EQ(*sched.next_event_time(), 50U);
  sched.run_until(*sched.next_event_time());
  EXPECT_EQ(fired, 50U);
  EXPECT_EQ(sched.now(), 50U);
}

// --------------------------------------------------------------- LinkModel

TEST(Link, DelayIsSerializationPlusLatency) {
  LinkConfig cfg;  // 100 kbps, 2 ms latency, no jitter, no loss
  LinkModel link(cfg, 1);
  const auto verdict = link.transmit(1000, 1, 2);
  EXPECT_FALSE(verdict.dropped);
  EXPECT_EQ(verdict.delay_us, 10'000U + 2'000U);  // 1000 bits at 100 kbps
}

TEST(Link, BurstyFactoryHitsTargetAverage) {
  const LinkConfig cfg = LinkConfig::bursty(0.05);
  EXPECT_NEAR(cfg.average_loss(), 0.05, 1e-12);

  LinkModel link(cfg, 42);
  for (int i = 0; i < 20'000; ++i) (void)link.transmit(512, 1, 2);
  const double rate = static_cast<double>(link.copies_dropped()) /
                      static_cast<double>(link.copies_offered());
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.07);
}

TEST(Link, DeterministicUnderSeed) {
  LinkModel a(LinkConfig::bursty(0.2), 7);
  LinkModel b(LinkConfig::bursty(0.2), 7);
  for (int i = 0; i < 500; ++i) {
    const auto va = a.transmit(256, 1, 2);
    const auto vb = b.transmit(256, 1, 2);
    EXPECT_EQ(va.dropped, vb.dropped);
    EXPECT_EQ(va.delay_us, vb.delay_us);
  }
}

TEST(Link, RejectsInvalidConfigs) {
  EXPECT_THROW(LinkConfig::bursty(0.5), std::invalid_argument);
  LinkConfig cfg;
  cfg.bandwidth_bps = 0.0;
  EXPECT_THROW(LinkModel(cfg, 1), std::invalid_argument);
}

// ------------------------------------------------------------- BatteryBank

TEST(Battery, IdleDrainKillsAtCapacity) {
  PowerConfig power;
  power.capacity_mj = 10.0;
  power.idle_mw = 1000.0;  // 1 mJ per ms
  BatteryBank bank(power);
  bank.add_node(1, 0);
  EXPECT_FALSE(bank.tick(1, 5'000));  // 5 mJ consumed
  EXPECT_TRUE(bank.alive(1));
  EXPECT_TRUE(bank.tick(1, 10'000));  // crosses 10 mJ: just died
  EXPECT_FALSE(bank.alive(1));
  EXPECT_EQ(bank.deaths(), 1U);
  EXPECT_EQ(bank.first_death_us().value(), 10'000U);
  // Dead nodes stop draining.
  EXPECT_FALSE(bank.tick(1, 20'000));
  EXPECT_DOUBLE_EQ(bank.total_consumed_mj(), 10.0);
}

TEST(Battery, LedgerResetsAreBanked) {
  PowerConfig power;  // infinite capacity
  BatteryBank bank(power);
  bank.add_node(1, 0);
  energy::Ledger big;
  big.tx_bits = 100'000;
  bank.update(1, big, 1'000);
  const double after_big = bank.total_consumed_mj();
  EXPECT_GT(after_big, 0.0);
  // A shrunken ledger means the member's session state was rebuilt; the
  // integral stays continuous — neither dropping the old tenure nor
  // double-counting the share the fresh ledger still holds.
  energy::Ledger small;
  small.tx_bits = 1'000;
  bank.update(1, small, 2'000);
  EXPECT_NEAR(bank.total_consumed_mj(), after_big, 1e-9);
  // ...and the fresh tenure accrues on top of the banked one.
  energy::Ledger grown = small;
  grown.tx_bits = 50'000;
  bank.update(1, grown, 3'000);
  EXPECT_GT(bank.total_consumed_mj(), after_big);
}

// ---------------------------------------------------------------- Metrics

TEST(Metrics, NearestRankPercentiles) {
  const LatencySummary s = summarize_latency({40, 10, 30, 20});
  EXPECT_EQ(s.count, 4U);
  EXPECT_EQ(s.p50_us, 20U);
  EXPECT_EQ(s.p90_us, 40U);
  EXPECT_EQ(s.p99_us, 40U);
  EXPECT_EQ(s.max_us, 40U);
  const LatencySummary empty = summarize_latency({});
  EXPECT_EQ(empty.count, 0U);
  EXPECT_EQ(empty.p50_us, 0U);
  EXPECT_EQ(empty.max_us, 0U);
}

TEST(Metrics, JsonCarriesPerOperationLatencyPercentiles) {
  Metrics metrics;
  metrics.form_success = true;
  metrics.op_latencies_us.all = {400, 100, 300, 200};  // form + three rekeys
  metrics.op_latencies_us.join = {100, 300};
  metrics.op_latencies_us.leave = {200};
  const obs::json::JsonValue doc = obs::json::parse(metrics.to_json());
  // One block shape everywhere: `latency` carries it for every operation
  // (form included), each kind block carries it for that kind's rekeys.
  const std::set<std::string> fields{"count", "p50_us", "p90_us", "p99_us", "max_us"};
  const auto fields_of = [](const obs::json::JsonValue& block) {
    std::set<std::string> keys;
    for (const auto& [key, value] : block.as_object()) {
      if (value.is_number()) keys.insert(key);
    }
    return keys;
  };
  const std::vector<std::string> kinds{"join", "leave", "partition", "merge"};
  ASSERT_TRUE(doc.has("latency"));
  const obs::json::JsonValue& latency = doc.at("latency");
  EXPECT_EQ(fields_of(latency), fields);
  EXPECT_EQ(latency.as_object().size(), fields.size() + kinds.size());
  for (const std::string& kind : kinds) {
    EXPECT_EQ(fields_of(latency.at(kind)), fields) << kind;
    EXPECT_EQ(latency.at(kind).as_object().size(), fields.size()) << kind;
  }
  EXPECT_FALSE(doc.has("latency_us"));

  EXPECT_EQ(latency.at("count").as_uint(), 4U);
  EXPECT_EQ(latency.at("p50_us").as_uint(), 200U);
  EXPECT_EQ(latency.at("p90_us").as_uint(), 400U);
  EXPECT_EQ(latency.at("p99_us").as_uint(), 400U);
  EXPECT_EQ(latency.at("max_us").as_uint(), 400U);
  EXPECT_EQ(latency.at("join").at("count").as_uint(), 2U);
  EXPECT_EQ(latency.at("join").at("p50_us").as_uint(), 100U);
  EXPECT_EQ(latency.at("join").at("max_us").as_uint(), 300U);
  EXPECT_EQ(latency.at("leave").at("p99_us").as_uint(), 200U);
  EXPECT_EQ(latency.at("partition").at("count").as_uint(), 0U);
  EXPECT_EQ(latency.at("partition").at("p50_us").as_uint(), 0U);

  // `all` is exactly the successful form plus every kind's rekeys.
  std::uint64_t kind_total = 0;
  for (const std::string& kind : kinds) kind_total += latency.at(kind).at("count").as_uint();
  EXPECT_EQ(latency.at("count").as_uint(), 1U + kind_total);
}

// ----------------------------------------------------- Timed flat sessions

TEST(Driver, FlatFormAdvancesVirtualTime) {
  gka::Authority authority(gka::SecurityProfile::kTiny, 2024);
  Scheduler sched;
  DriverConfig cfg;
  ProtocolDriver driver(sched, cfg, 5);
  gka::GroupSession session(authority, gka::Scheme::kProposed, {1, 2, 3, 4, 5, 6}, 42);
  driver.attach(session);

  const OpOutcome formed = driver.form();
  ASSERT_TRUE(formed.success);
  EXPECT_TRUE(session.has_key());
  EXPECT_EQ(formed.retransmissions, 0);  // lossless links
  EXPECT_GE(formed.rounds, 2);
  // Each reliable round costs exactly one timeout on a lossless link.
  EXPECT_EQ(formed.latency_us(),
            static_cast<SimTime>(formed.rounds) * cfg.round_timeout_us);
  EXPECT_GT(driver.frames_on_air(), 0U);
  EXPECT_GT(driver.bits_on_air(), 0U);
  EXPECT_EQ(driver.copies_dropped(), 0U);
  EXPECT_TRUE(driver.agreed());
}

TEST(Driver, FlatRetransmitsThroughBurstyLoss) {
  gka::Authority authority(gka::SecurityProfile::kTiny, 2024);
  Scheduler sched;
  DriverConfig cfg;
  cfg.link = LinkConfig::bursty(0.15);
  ProtocolDriver driver(sched, cfg, 9);
  gka::GroupSession session(authority, gka::Scheme::kProposed, {1, 2, 3, 4, 5, 6, 7, 8}, 42);
  driver.attach(session);

  const OpOutcome formed = driver.form();
  ASSERT_TRUE(formed.success);
  EXPECT_GT(formed.retransmissions, 0);  // loss forced extra attempts
  EXPECT_GT(driver.copies_dropped(), 0U);
  // Retransmission rounds cost additional timeouts.
  EXPECT_GT(formed.latency_us(),
            static_cast<SimTime>(formed.rounds) * cfg.round_timeout_us);

  const OpOutcome joined = driver.join(99);
  EXPECT_TRUE(joined.success);
  const OpOutcome left = driver.leave(3);
  EXPECT_TRUE(left.success);
  EXPECT_TRUE(driver.agreed());
}

// --------------------------------------------- Timed hierarchical sessions

TEST(Driver, HierarchicalChurnOverBurstyLinks) {
  gka::Authority authority(gka::SecurityProfile::kTiny, 2024);
  Scheduler sched;
  DriverConfig cfg;
  cfg.link = LinkConfig::bursty(0.05);
  ProtocolDriver driver(sched, cfg, 17);
  cluster::ClusterConfig cluster_cfg;
  cluster_cfg.min_cluster = 4;
  cluster_cfg.max_cluster = 8;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 24; ++i) ids.push_back(100 + i);
  cluster::HierarchicalSession session(authority, cluster_cfg, ids, 7);
  driver.attach(session);

  const OpOutcome formed = driver.form();
  ASSERT_TRUE(formed.success);
  EXPECT_GT(formed.latency_us(), 0U);
  EXPECT_TRUE(session.all_members_agree());

  // Churn: joins force splits eventually; the new networks (head-tier
  // rebuilds, split offshoots) must inherit the timed hooks.
  for (std::uint32_t i = 0; i < 6; ++i) {
    const OpOutcome join = driver.join(500 + i);
    ASSERT_TRUE(join.success) << "join " << i;
    EXPECT_GT(join.latency_us(), 0U);
  }
  const OpOutcome part = driver.partition({101, 102, 103});
  ASSERT_TRUE(part.success);
  EXPECT_TRUE(session.all_members_agree());
  EXPECT_GT(driver.copies_dropped(), 0U);

  // member_ledger covers heads (leaf + tier) and plain members (leaf only).
  const auto heads = session.cluster_heads();
  const energy::Ledger head_ledger = session.member_ledger(heads.front());
  EXPECT_GT(head_ledger.tx_bits, 0U);
  EXPECT_THROW((void)session.member_ledger(0xDEAD), std::invalid_argument);
}

// ------------------------------------------------------------- Scenarios

ScenarioConfig churn_scenario() {
  ScenarioConfig cfg;
  cfg.name = "determinism";
  cfg.topology = Topology::kHierarchical;
  cfg.initial_members = 16;
  cfg.base_id = 1000;
  cfg.seed = 77;
  cfg.duration_us = 120 * kUsPerSec;
  cfg.driver.link = LinkConfig::bursty(0.05);
  cfg.cluster.min_cluster = 4;
  cfg.cluster.max_cluster = 8;
  cfg.trace = {
      {5 * kUsPerSec, TraceEvent::Kind::kJoin, {2000}},
      {10 * kUsPerSec, TraceEvent::Kind::kJoin, {2001}},
      {20 * kUsPerSec, TraceEvent::Kind::kLeave, {1003}},
      {40 * kUsPerSec, TraceEvent::Kind::kPartition, {1004, 1005, 1006}},
      {60 * kUsPerSec, TraceEvent::Kind::kMerge, {1004, 1005, 1006}},
  };
  return cfg;
}

TEST(Scenario, SameSeedSameTraceBitIdenticalJson) {
  const ScenarioConfig cfg = churn_scenario();
  const Metrics first = ScenarioRunner(cfg).run();
  const Metrics second = ScenarioRunner(cfg).run();
  EXPECT_FALSE(first.to_json().empty());
  EXPECT_EQ(first.to_json(), second.to_json());

  EXPECT_TRUE(first.form_success);
  EXPECT_EQ(first.rekeys_attempted, 5U);
  EXPECT_EQ(first.rekeys_completed, 5U);
  EXPECT_TRUE(first.all_members_agree);
  EXPECT_EQ(first.members_final, 17U);  // 16 + 2 joins - 1 leave - 3 + 3 re-admitted

  // Per-operation latency percentiles are part of the deterministic JSON:
  // every completed op (form + 5 rekeys) is sampled, split by kind.
  EXPECT_EQ(first.op_latencies_us.all.size(), 6U);
  EXPECT_EQ(first.op_latencies_us.join.size(), 2U);
  EXPECT_EQ(first.op_latencies_us.leave.size(), 1U);
  EXPECT_EQ(first.op_latencies_us.partition.size(), 1U);
  EXPECT_EQ(first.op_latencies_us.merge.size(), 1U);
  EXPECT_GT(summarize_latency(first.op_latencies_us.all).p50_us, 0U);
  const obs::json::JsonValue doc = obs::json::parse(first.to_json());
  const obs::json::JsonValue& latency = doc.at("latency");
  EXPECT_EQ(latency.at("count").as_uint(), 6U);
  std::uint64_t kind_total = 0;
  for (const char* kind : {"join", "leave", "partition", "merge"}) {
    kind_total += latency.at(kind).at("count").as_uint();
  }
  EXPECT_EQ(latency.at("count").as_uint(), 1U + kind_total);  // form + rekeys
  EXPECT_FALSE(doc.has("latency_us"));
}

TEST(Scenario, DifferentSeedDivergesEventually) {
  ScenarioConfig cfg = churn_scenario();
  const Metrics a = ScenarioRunner(cfg).run();
  cfg.seed = 78;
  const Metrics b = ScenarioRunner(cfg).run();
  // Different loss pattern => different air totals (overwhelmingly likely
  // and — because runs are deterministic — stable for these two seeds).
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(Scenario, FlatTopologyAndWaypointChurn) {
  ScenarioConfig cfg;
  cfg.name = "waypoint";
  cfg.topology = Topology::kFlat;
  cfg.initial_members = 8;
  cfg.seed = 5;
  cfg.duration_us = 60 * kUsPerSec;
  cfg.waypoint.enabled = true;
  cfg.waypoint.field_m = 600.0;
  cfg.waypoint.range_m = 220.0;
  cfg.waypoint.speed_mps = 40.0;
  cfg.waypoint.tick_us = 5 * kUsPerSec;
  const Metrics metrics = ScenarioRunner(cfg).run();
  EXPECT_TRUE(metrics.form_success);
  EXPECT_GE(metrics.members_final, 2U);
  // With range << field and fast nodes, churn must have happened (stable:
  // the run is deterministic under the fixed seed).
  EXPECT_GT(metrics.events_join + metrics.events_leave, 0U);
  // Operations started inside the window may finish past it; the clock
  // never ends before the configured duration.
  EXPECT_GE(metrics.end_time_us, cfg.duration_us);
}

TEST(Scenario, BatteryDepletionStopsLifetimeRun) {
  ScenarioConfig cfg;
  cfg.name = "lifetime";
  cfg.topology = Topology::kHierarchical;
  cfg.cluster.min_cluster = 2;
  cfg.cluster.max_cluster = 4;
  cfg.initial_members = 8;
  cfg.seed = 3;
  cfg.duration_us = 600 * kUsPerSec;
  cfg.stop_on_first_death = true;
  cfg.power.capacity_mj = 1.0;  // far below one GKA's radio cost
  cfg.power.idle_mw = 1.0;
  const Metrics metrics = ScenarioRunner(cfg).run();
  EXPECT_TRUE(metrics.form_success);
  EXPECT_GE(metrics.deaths, 1U);
  ASSERT_TRUE(metrics.first_death_us.has_value());
  EXPECT_LT(metrics.end_time_us, cfg.duration_us);
  EXPECT_GT(metrics.energy_total_mj, 0.0);
}

// ------------------------------------------------------------- Multi-group

TEST(MultiGroup, GroupIsTheShiftedTemplate) {
  MultiGroupConfig cfg;
  cfg.scenario = churn_scenario();
  cfg.stagger_us = 3 * kUsPerSec;
  const ScenarioConfig g2 = cfg.group(2);
  EXPECT_EQ(g2.name, "determinism/g2");
  EXPECT_EQ(g2.base_id, 1000U + 2 * kGroupIdStride);
  EXPECT_EQ(g2.duration_us, cfg.scenario.duration_us + 6 * kUsPerSec);
  ASSERT_EQ(g2.trace.size(), cfg.scenario.trace.size());
  EXPECT_EQ(g2.trace[3].at_us, 46 * kUsPerSec);
  EXPECT_EQ(g2.trace[3].ids, (std::vector<std::uint32_t>{1004 + 2 * kGroupIdStride,
                                                         1005 + 2 * kGroupIdStride,
                                                         1006 + 2 * kGroupIdStride}));
  EXPECT_EQ(cfg.group(0).name, "determinism/g0");
  EXPECT_EQ(cfg.group(0).trace[0].ids, cfg.scenario.trace[0].ids);
}

TEST(MultiGroup, BatteryDepletionStopsEveryGroup) {
  MultiGroupConfig cfg;
  cfg.groups = 2;
  cfg.stagger_us = kUsPerSec;
  ScenarioConfig& group = cfg.scenario;
  group.name = "multi_lifetime";
  group.topology = Topology::kFlat;
  group.initial_members = 6;
  group.seed = 3;
  group.duration_us = 600 * kUsPerSec;
  group.stop_on_first_death = true;
  group.power.capacity_mj = 1.0;  // far below one GKA's radio cost
  group.power.idle_mw = 1.0;
  const MultiGroupMetrics metrics = MultiGroupRunner(cfg).run();
  ASSERT_EQ(metrics.per_group.size(), 2U);
  for (std::size_t g = 0; g < 2; ++g) {
    const Metrics& m = metrics.per_group[g];
    EXPECT_TRUE(m.form_success) << m.scenario;
    EXPECT_GE(m.deaths, 1U) << m.scenario;
    ASSERT_TRUE(m.first_death_us.has_value()) << m.scenario;
    // Group g forms at g * stagger_us, so it cannot die before that.
    EXPECT_GE(*m.first_death_us, g * cfg.stagger_us) << m.scenario;
    EXPECT_LT(m.end_time_us, cfg.group(g).duration_us) << m.scenario;
    EXPECT_GT(m.energy_total_mj, 0.0) << m.scenario;
  }
}

TEST(MultiGroup, TemplateIdsOutsideTheGroupStrideThrow) {
  const auto config_with = [](std::vector<std::uint32_t> ids) {
    MultiGroupConfig cfg;
    cfg.scenario.base_id = 1000;
    cfg.scenario.initial_members = 4;
    cfg.scenario.trace = {{kUsPerSec, TraceEvent::Kind::kMerge, std::move(ids)}};
    return cfg;
  };
  EXPECT_NO_THROW(MultiGroupRunner(config_with({1000, 1000 + kGroupIdStride - 1})));
  EXPECT_THROW(MultiGroupRunner(config_with({1000 + kGroupIdStride})), std::invalid_argument);
  EXPECT_THROW(MultiGroupRunner(config_with({999})), std::invalid_argument);

  MultiGroupConfig too_many = config_with({1001});
  too_many.scenario.initial_members = kGroupIdStride + 1;
  EXPECT_THROW(MultiGroupRunner(std::move(too_many)), std::invalid_argument);

  MultiGroupConfig no_groups = config_with({1001});
  no_groups.groups = 0;
  EXPECT_THROW(MultiGroupRunner(std::move(no_groups)), std::invalid_argument);
}

}  // namespace
}  // namespace idgka::sim
