// Event-driven protocol engine tests: Executor run multiplexing (timer +
// frame-arrival resumption, deterministic event order under parallel
// batches), runs as fibers (no thread per run, teardown unwinding, trace
// tracks that follow a run across workers), the engine-hosted driver, and
// the multi-group scenario runner (M concurrent clusters on one clock).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "gka/session.h"
#include "net/parallel.h"
#include "obs/json_reader.h"
#include "obs/trace.h"
#include "sim/driver.h"
#include "sim/scenario.h"

namespace idgka {
namespace {

using engine::Executor;
using engine::ProtocolRun;

// ------------------------------------------------------------------ Executor

TEST(Executor, RunsResumeInVirtualTimeOrder) {
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  std::mutex record_mutex;
  std::vector<std::pair<int, sim::SimTime>> wakes;

  // Distinct wake timestamps: cross-run order within one timestamp is a
  // parallel batch and deliberately unordered.
  for (int i = 0; i < 3; ++i) {
    executor.submit("run" + std::to_string(i), [&, i](ProtocolRun& run) {
      run.sleep_until(100 * (i + 1));
      {
        const std::lock_guard<std::mutex> lock(record_mutex);
        wakes.emplace_back(i, run.now());
      }
      run.sleep_until(1000 - 100 * i);
      const std::lock_guard<std::mutex> lock(record_mutex);
      wakes.emplace_back(i, run.now());
    });
  }
  executor.drain();

  ASSERT_EQ(wakes.size(), 6U);
  const std::vector<std::pair<int, sim::SimTime>> expected{
      {0, 100}, {1, 200}, {2, 300}, {2, 800}, {1, 900}, {0, 1000}};
  EXPECT_EQ(wakes, expected);
  EXPECT_EQ(scheduler.now(), 1000U);
  EXPECT_EQ(executor.resumes(), 9U);  // 3 starts + 6 timer wakes
}

TEST(Executor, SameInstantRunsResumeAsOneBatch) {
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  for (int i = 0; i < 4; ++i) {
    executor.submit("batch", [](ProtocolRun& run) { run.sleep_until(500); });
  }
  executor.drain();
  // All four submitted runs start together, then wake together at t=500.
  EXPECT_EQ(executor.max_batch(), 4U);
  EXPECT_EQ(executor.run_count(), 4U);
}

TEST(Executor, PostedEventsLandBeforeTimerWake) {
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  std::vector<int> order;
  executor.submit("waiter", [&](ProtocolRun& run) {
    executor.post(50, [&] { order.push_back(1); }, nullptr);
    run.sleep_until(100);
    order.push_back(2);
  });
  executor.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Executor, ArrivalSensitiveAwaitResumesWhenChannelQuiet) {
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  sim::SimTime resumed_at = 0;
  executor.submit("arrival", [&](ProtocolRun& run) {
    // Two in-flight "copies"; the await must resume at the later arrival
    // (t=70), not at the full timeout (t=10'000).
    executor.post(30, [] {}, ProtocolRun::current());
    executor.post(70, [] {}, ProtocolRun::current());
    run.await_round(10'000, /*resume_on_arrival=*/true);
    resumed_at = run.now();
  });
  executor.drain();
  EXPECT_EQ(resumed_at, 70U);
  EXPECT_EQ(scheduler.now(), 70U);

  // Quiet channel: an arrival-sensitive await with nothing in flight
  // returns immediately without burning the timeout.
  sim::SimTime quiet_at = 123;
  executor.submit("quiet", [&](ProtocolRun& run) {
    run.await_round(10'000, /*resume_on_arrival=*/true);
    quiet_at = run.now();
  });
  executor.drain();
  EXPECT_EQ(quiet_at, 70U);  // unchanged clock
}

TEST(Executor, TimerOnlyAwaitBurnsFullTimeout) {
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  sim::SimTime resumed_at = 0;
  executor.submit("timer", [&](ProtocolRun& run) {
    executor.post(30, [] {}, ProtocolRun::current());
    run.await_round(10'000, /*resume_on_arrival=*/false);
    resumed_at = run.now();
  });
  executor.drain();
  EXPECT_EQ(resumed_at, 10'000U);
}

TEST(Executor, SameInstantPostsRunInBatchOrder) {
  // Four runs wake in one batch and each posts an event for the same later
  // instant. Later runs post first in real time (earlier ones dawdle), yet
  // the events must execute in batch (= submission) order: the host moves
  // each run's outbox into the queue in batch order after the batch.
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  std::vector<int> order;  // appended by events, on the host thread only
  for (int i = 0; i < 4; ++i) {
    executor.submit("poster" + std::to_string(i), [&, i](ProtocolRun& run) {
      run.sleep_until(100);
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * (3 - i)));
      executor.post(50, [&order, i] { order.push_back(i); }, nullptr);
      run.sleep_until(200);
    });
  }
  executor.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(executor.max_batch(), 4U);
  EXPECT_EQ(executor.resumes(), 12U);  // 4 starts + 4 wakes at 100 + 4 at 200
}

TEST(Executor, PostOnBehalfOfAnotherRunWakesIt) {
  // A run posts a frame-arrival event owned by another run: the event must
  // land at the right virtual instant and wake the owner's
  // arrival-sensitive await.
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  std::vector<sim::SimTime> arrivals;
  std::mutex arrivals_mutex;

  ProtocolRun* receiver = nullptr;
  executor.submit("receiver", [&](ProtocolRun& run) {
    receiver = &run;
    run.sleep_until(260);  // the copy is in flight by now (sender posts at 250)
    run.await_round(/*timeout=*/10'000, /*resume_on_arrival=*/true);
    const std::lock_guard<std::mutex> lock(arrivals_mutex);
    arrivals.push_back(run.now());
  });
  executor.submit("sender", [&](ProtocolRun& run) {
    run.sleep_until(250);
    executor.post(
        50,
        [&] {
          const std::lock_guard<std::mutex> lock(arrivals_mutex);
          arrivals.push_back(0);  // the deposit itself
        },
        receiver);
  });
  executor.drain();

  ASSERT_EQ(arrivals.size(), 2U);
  EXPECT_EQ(arrivals[0], 0U);    // deposit ran first...
  EXPECT_EQ(arrivals[1], 300U);  // ...and woke the waiter at t=250+50
  EXPECT_EQ(scheduler.now(), 300U);
}

TEST(Executor, RunBodyExceptionPropagatesFromDrain) {
  // A body may throw before its first yield, or after a resume, when its
  // fiber may be hosted by another worker than the one that started it.
  const std::vector<ProtocolRun::Body> throwers{
      [](ProtocolRun&) { throw std::domain_error("boom"); },
      [](ProtocolRun& run) {
        run.sleep_until(5);
        throw std::domain_error("boom");
      }};
  for (const ProtocolRun::Body& thrower : throwers) {
    sim::Scheduler scheduler;
    Executor executor(scheduler);
    executor.submit("ok", [](ProtocolRun& run) { run.sleep_until(10); });
    executor.submit("boom", thrower);
    EXPECT_THROW(executor.drain(), std::domain_error);
    // The sibling run still settled before the rethrow.
    EXPECT_EQ(scheduler.now(), 10U);
  }
}

// ------------------------------------------------------------ Runs as fibers

/// The process's OS thread count, from /proc/self/status.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kRuntimeThreads = 1;  // TSan's background thread
#else
constexpr std::size_t kRuntimeThreads = 0;
#endif

TEST(Executor, ThreadCountStaysAtPoolPlusHost) {
  // A run is a fiber, not a thread: 4 096 parked runs leave the process
  // with the net pool plus the host, net::worker_count() threads in all.
  constexpr std::size_t kRuns = 4096;
  sim::Scheduler scheduler;
  Executor executor(scheduler);
  std::atomic<std::size_t> max_threads{0};
  const auto sample = [&max_threads] {
    const std::size_t now = process_threads();
    std::size_t seen = max_threads.load();
    while (now > seen && !max_threads.compare_exchange_weak(seen, now)) {
    }
  };
  for (std::size_t i = 0; i < kRuns; ++i) {
    executor.submit("many", [&sample, i](ProtocolRun& run) {
      if (i % 64 == 0) sample();
      run.sleep_until(1 + i % 8);
      if (i % 64 == 0) sample();
    });
  }
  sample();  // every run submitted, none started
  executor.drain();
  sample();
  EXPECT_EQ(executor.run_count(), kRuns);
  EXPECT_EQ(executor.resumes(), 2 * kRuns);
  EXPECT_GT(max_threads.load(), 0U);
  EXPECT_LE(max_threads.load(), net::worker_count() + kRuntimeThreads);
}

TEST(Executor, TeardownUnwindsParkedBodies) {
  // Destroying an executor with parked runs resumes each one with
  // RunAborted, which unwinds its body (destructors run) before the stack
  // is unmapped.
  struct Guard {
    int& count;
    ~Guard() { ++count; }
  };
  constexpr int kRuns = 8;
  int unwound = 0;  // bumped on the host: teardown resumes runs there
  sim::Scheduler scheduler;
  {
    Executor executor(scheduler);
    for (int i = 0; i < kRuns; ++i) {
      executor.submit("parked", [&unwound](ProtocolRun& run) {
        const Guard guard{unwound};
        run.sleep_until(1000);
        ADD_FAILURE() << "body resumed past teardown";
      });
    }
    // An event that throws out of drain() leaves every run parked.
    executor.post(10, [] { throw std::runtime_error("stop"); }, nullptr);
    EXPECT_THROW(executor.drain(), std::runtime_error);
    EXPECT_EQ(unwound, 0);
  }
  EXPECT_EQ(unwound, kRuns);
}

TEST(Executor, SpanAcrossYieldStaysOnTheRunsTrack) {
  // A span opened before a yield and closed after it begins and ends on
  // the run's own "<name>#<id>" track, whichever worker resumed the run.
  constexpr std::uint64_t kRuns = 16;
  obs::clear();
  obs::set_trace_enabled(true);
  {
    sim::Scheduler scheduler;
    Executor executor(scheduler);
    for (std::uint64_t i = 0; i < kRuns; ++i) {
      executor.submit("span", [i](ProtocolRun& run) {
        const obs::Span span("test.await", "test", i);
        run.sleep_until(100 + 10 * (i % 4));
      });
    }
    executor.drain();
  }
  obs::set_trace_enabled(false);
  const obs::json::JsonValue trace = obs::json::parse(obs::export_chrome_trace());
  obs::clear();

  std::map<std::uint64_t, std::string> tracks;  // tid -> track name
  for (const obs::json::JsonValue& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M") {
      tracks[e.at("tid").as_uint()] = e.at("args").at("name").as_string();
    }
  }
  std::map<std::string, std::string> phases;   // track -> its span's phases
  std::map<std::string, std::uint64_t> opened;  // track -> the begin's arg
  for (const obs::json::JsonValue& e : trace.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "test.await") continue;
    const std::string& track = tracks.at(e.at("tid").as_uint());
    phases[track] += e.at("ph").as_string();
    if (e.has("args")) opened[track] = e.at("args").at("v").as_uint();
  }
  EXPECT_EQ(phases.size(), kRuns);
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const std::string track = "span#" + std::to_string(i);
    EXPECT_EQ(phases[track], "BE") << track;
    EXPECT_EQ(opened[track], i) << track;
  }
}

// --------------------------------------------- Engine-hosted timed driver

TEST(EngineDriver, ResumeOnArrivalShortensLatencyNotOutcomes) {
  gka::Authority authority(gka::SecurityProfile::kTiny, 2024);
  const std::vector<std::uint32_t> ids{1, 2, 3, 4, 5, 6};

  auto run_form = [&](bool arrival) {
    sim::Scheduler scheduler;
    sim::DriverConfig cfg;
    cfg.resume_on_arrival = arrival;
    sim::ProtocolDriver driver(scheduler, cfg, 5);
    gka::GroupSession session(authority, gka::Scheme::kProposed, ids, 42);
    driver.attach(session);
    return driver.form();
  };

  const sim::OpOutcome timer_mode = run_form(false);
  const sim::OpOutcome arrival_mode = run_form(true);
  ASSERT_TRUE(timer_mode.success);
  ASSERT_TRUE(arrival_mode.success);
  // Same protocol evolution (loss decided at transmit time)...
  EXPECT_EQ(arrival_mode.rounds, timer_mode.rounds);
  EXPECT_EQ(arrival_mode.retransmissions, timer_mode.retransmissions);
  // ...but arrival-true latency instead of timeout-quantized.
  EXPECT_LT(arrival_mode.latency_us(), timer_mode.latency_us());
  EXPECT_GT(arrival_mode.latency_us(), 0U);

  // Deterministic: a repeat lands on the identical latency.
  EXPECT_EQ(run_form(true).latency_us(), arrival_mode.latency_us());
}

// ------------------------------------------------------------- Multi-group

sim::MultiGroupConfig small_multi() {
  sim::MultiGroupConfig cfg;
  cfg.groups = 3;
  cfg.stagger_us = 15'000;  // overlapping, not identical, schedules
  sim::ScenarioConfig& group = cfg.scenario;
  group.name = "engine_multi";
  group.topology = sim::Topology::kFlat;
  group.initial_members = 6;
  group.base_id = 1000;
  group.seed = 99;
  group.duration_us = 800'000;
  // 1000..1005 are the initial members, 1006 a joiner.
  group.trace = {
      {sim::SimTime{200'000}, sim::TraceEvent::Kind::kJoin, {1006}},
      {sim::SimTime{400'000}, sim::TraceEvent::Kind::kLeave, {1001}},
      {sim::SimTime{600'000}, sim::TraceEvent::Kind::kPartition, {1002, 1003}},
      {sim::SimTime{800'000}, sim::TraceEvent::Kind::kMerge, {1002, 1003}},
  };
  return cfg;
}

TEST(MultiGroup, ConcurrentGroupsConvergeAndInterleave) {
  const sim::MultiGroupConfig cfg = small_multi();
  const sim::MultiGroupMetrics metrics = sim::MultiGroupRunner(cfg).run();

  ASSERT_EQ(metrics.per_group.size(), 3U);
  for (const sim::Metrics& g : metrics.per_group) {
    EXPECT_TRUE(g.form_success) << g.scenario;
    EXPECT_TRUE(g.all_members_agree) << g.scenario;
    EXPECT_EQ(g.rekeys_attempted, 4U) << g.scenario;
    EXPECT_EQ(g.rekeys_completed, 4U) << g.scenario;
    EXPECT_EQ(g.members_final, 6U) << g.scenario;  // 6 +1 -1 -2 +2
    // Every group runs the scenario script with its own batteries.
    EXPECT_GT(g.energy_total_mj, 0.0) << g.scenario;
  }
  EXPECT_EQ(metrics.per_group[2].scenario, "engine_multi/g2");
  EXPECT_TRUE(metrics.all_groups_agree());
  EXPECT_EQ(metrics.rekeys_attempted(), 12U);
  EXPECT_DOUBLE_EQ(metrics.convergence(), 1.0);
  // All three groups submitted together -> the first batch is 3 wide:
  // independent protocol runs genuinely interleaved on one clock.
  EXPECT_GE(metrics.max_concurrent_runs, 3U);
  EXPECT_GT(metrics.engine_resumes, 3U);
  EXPECT_GT(metrics.crypto_exps, 0U);
}

TEST(MultiGroup, SameSeedBitIdenticalJson) {
  const sim::MultiGroupConfig cfg = small_multi();
  const std::string first = sim::MultiGroupRunner(cfg).run().to_json();
  const std::string second = sim::MultiGroupRunner(cfg).run().to_json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(MultiGroup, DifferentSeedsDiverge) {
  sim::MultiGroupConfig cfg = small_multi();
  const std::string a = sim::MultiGroupRunner(cfg).run().to_json();
  cfg.scenario.seed = 100;
  const std::string b = sim::MultiGroupRunner(cfg).run().to_json();
  EXPECT_NE(a, b);
}

TEST(MultiGroup, HierarchicalGroupsRunConcurrently) {
  sim::MultiGroupConfig cfg;
  cfg.groups = 2;
  sim::ScenarioConfig& group = cfg.scenario;
  group.name = "engine_multi_hier";
  group.topology = sim::Topology::kHierarchical;
  group.initial_members = 12;
  group.cluster.min_cluster = 3;
  group.cluster.max_cluster = 6;
  group.seed = 7;
  group.duration_us = 500'000;
  group.trace = {
      {sim::SimTime{300'000}, sim::TraceEvent::Kind::kJoin, {1012}},
      {sim::SimTime{500'000}, sim::TraceEvent::Kind::kLeave, {1002}},
  };
  const sim::MultiGroupMetrics metrics = sim::MultiGroupRunner(cfg).run();
  ASSERT_EQ(metrics.per_group.size(), 2U);
  for (const sim::Metrics& g : metrics.per_group) {
    EXPECT_TRUE(g.form_success) << g.scenario;
    EXPECT_TRUE(g.all_members_agree) << g.scenario;
    EXPECT_GT(g.clusters_final, 1U) << g.scenario;
    EXPECT_GT(g.energy_total_mj, 0.0) << g.scenario;
  }
  EXPECT_GE(metrics.max_concurrent_runs, 2U);
}

}  // namespace
}  // namespace idgka
