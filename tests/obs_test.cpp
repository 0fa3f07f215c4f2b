// Observability layer: JSON writer, metrics registry, flight recorder and
// the trace-determinism contract over a full scenario run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/scenario.h"

namespace idgka {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonWriter;
using obs::Registry;

// ------------------------------------------------------------- JsonWriter

TEST(JsonWriter, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.kv("a", 1);
  w.kv("b", std::string_view("x"));
  w.key("c").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.begin_object().kv("d", true).end_object();
  w.end_array();
  w.key("e").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":[1,2,{"d":true}],"e":null})");
}

TEST(JsonWriter, EscapingAndNumericFormats) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", std::string_view("q\"b\\s\nn\tt\rr\x01z"));
  w.kv("d", 1.2345);          // fixed %.3f
  w.kv("i", std::int64_t{-7});
  w.kv("u", ~std::uint64_t{0});
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"q\\\"b\\\\s\\nn\\tt\\rr\\u0001z\","
            "\"d\":1.234,\"i\":-7,\"u\":18446744073709551615}");
}

TEST(JsonWriter, TakeResetsTheWriter) {
  JsonWriter w;
  w.begin_object().kv("a", 1).end_object();
  EXPECT_EQ(w.take(), R"({"a":1})");
  w.begin_array().value(std::uint64_t{2}).end_array();
  EXPECT_EQ(w.take(), "[2]");
}

// ---------------------------------------------------------------- Counter

TEST(Counter, ConcurrentAddsSumExactly) {
  // Relaxed adds from many threads at once must lose nothing: the total
  // is exact once the writers have joined.
  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kAdds = 20'000;
  Counter c;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundaries) {
  // Bucket i holds exactly the values of bit width i.
  EXPECT_EQ(Histogram::bucket_index(0), 0U);
  EXPECT_EQ(Histogram::bucket_index(1), 1U);
  EXPECT_EQ(Histogram::bucket_index(2), 2U);
  EXPECT_EQ(Histogram::bucket_index(3), 2U);
  EXPECT_EQ(Histogram::bucket_index(4), 3U);
  EXPECT_EQ(Histogram::bucket_index(1023), 10U);
  EXPECT_EQ(Histogram::bucket_index(1024), 11U);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64U);

  EXPECT_EQ(Histogram::bucket_bounds(0), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(Histogram::bucket_bounds(1), (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(Histogram::bucket_bounds(4), (std::pair<std::uint64_t, std::uint64_t>{8, 15}));
  EXPECT_EQ(Histogram::bucket_bounds(64),
            (std::pair<std::uint64_t, std::uint64_t>{1ULL << 63, ~std::uint64_t{0}}));

  // Every bucket's own bounds index back into it.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const auto [lo, hi] = Histogram::bucket_bounds(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "lo of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(hi), i) << "hi of bucket " << i;
  }
}

TEST(Histogram, CountsSumsAndExactEndpoints) {
  Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0U);  // empty
  for (std::uint64_t v : {3U, 9U, 17U, 900U, 40000U}) h.record(v);
  EXPECT_EQ(h.count(), 5U);
  EXPECT_EQ(h.sum(), 3U + 9U + 17U + 900U + 40000U);
  EXPECT_EQ(h.min(), 3U);
  EXPECT_EQ(h.max(), 40000U);
  // Endpoints are exact (clamped to the tracked min/max).
  EXPECT_EQ(h.percentile(0.0), 3U);
  EXPECT_EQ(h.percentile(100.0), 40000U);
}

TEST(Histogram, PercentileWithinOneOctave) {
  // Seeded deterministic samples; the estimate must land in the same
  // power-of-two bucket as the exact nearest-rank answer.
  Histogram h;
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 100000;
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {10.0, 50.0, 90.0, 99.0}) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q / 100.0 * samples.size())) - 1;
    const std::uint64_t exact = samples[rank];
    const std::uint64_t est = h.percentile(q);
    EXPECT_EQ(Histogram::bucket_index(est), Histogram::bucket_index(exact))
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.percentile(50.0), 0U);
}

// --------------------------------------------------------------- Registry

TEST(Registry, SnapshotShape) {
  Registry r;
  r.counter("z.last").add(3);
  r.counter("a.first").add(1);
  r.gauge("g").max_of(7);
  r.gauge("g").max_of(5);  // high-watermark keeps 7
  r.histogram("h").record(4);
  r.register_probe("p", [] { return std::uint64_t{42}; });
  EXPECT_EQ(r.snapshot_json(),
            "{\"counters\":{\"a.first\":1,\"z.last\":3},"
            "\"gauges\":{\"g\":7},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,"
            "\"p50\":4,\"p90\":4,\"p99\":4}},"
            "\"probes\":{\"p\":42}}");
  // Same name -> same instrument; reset zeroes values, not identity.
  Counter& c = r.counter("a.first");
  r.reset();
  EXPECT_EQ(c.value(), 0U);
  c.add(2);
  EXPECT_EQ(r.counter("a.first").value(), 2U);
}

TEST(Registry, LabeledInstrumentsAreDistinctAndSorted) {
  Registry r;
  r.counter("net.drop", "3->7").add(2);
  r.counter("net.drop", "1->2").add(1);
  r.counter("net.drop").add(5);  // unlabeled base coexists
  r.gauge("depth", "g0").set(4);
  r.histogram("lat", "leo").record(8);
  // Same (base, label) -> same instrument.
  EXPECT_EQ(&r.counter("net.drop", "3->7"), &r.counter("net.drop", "3->7"));
  EXPECT_NE(&r.counter("net.drop", "3->7"), &r.counter("net.drop", "1->2"));
  EXPECT_EQ(r.counter("net.drop", "3->7").value(), 2U);
  // Snapshots carry the full `base{label}` names, sorted like everything
  // else (deterministic export order).
  const std::string snap = r.snapshot_json();
  const std::size_t plain = snap.find("\"net.drop\":5");
  const std::size_t l12 = snap.find("\"net.drop{1->2}\":1");
  const std::size_t l37 = snap.find("\"net.drop{3->7}\":2");
  ASSERT_NE(plain, std::string::npos) << snap;
  ASSERT_NE(l12, std::string::npos) << snap;
  ASSERT_NE(l37, std::string::npos) << snap;
  EXPECT_LT(plain, l12);
  EXPECT_LT(l12, l37);
  EXPECT_NE(snap.find("\"depth{g0}\":4"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"lat{leo}\""), std::string::npos) << snap;
}

TEST(Registry, LabelCardinalityCapCoalescesIntoOverflow) {
  Registry r;
  for (int i = 0; i < 300; ++i) {
    r.counter("burst", "label-" + std::to_string(i)).add(1);
  }
  // The family ledger admits kMaxLabelsPerFamily distinct labels; every
  // label past the cap lands in the shared overflow bucket.
  EXPECT_EQ(r.counter("burst", "overflow").value(),
            300U - Registry::kMaxLabelsPerFamily);
  EXPECT_EQ(r.counter("burst", "label-0").value(), 1U);
  // A capped family does not leak into other families.
  r.counter("other", "fresh").add(1);
  EXPECT_EQ(r.counter("other", "fresh").value(), 1U);
  EXPECT_EQ(r.counter("other", "overflow").value(), 0U);
}

TEST(Registry, SnapshotDeltaSubtraction) {
  Registry r;
  r.counter("c").add(10);
  r.counter("gone").add(3);  // unchanged between snapshots
  r.gauge("g").set(5);
  r.histogram("h").record(100);
  std::uint64_t probe_value = 7;
  r.register_probe("p", [&probe_value] { return probe_value; });

  const obs::Snapshot before = r.snapshot();
  r.counter("c").add(5);
  r.counter("fresh").add(2);
  r.gauge("g").set(9);
  r.histogram("h").record(300);
  r.histogram("h").record(500);
  probe_value = 11;
  const obs::Snapshot after = r.snapshot();

  const obs::Snapshot d = after.delta_since(before);
  // Counters/probes subtract; zero deltas are omitted so the delta lists
  // exactly what the window touched.
  EXPECT_EQ(d.counters.at("c"), 5U);
  EXPECT_EQ(d.counters.at("fresh"), 2U);
  EXPECT_FALSE(d.counters.contains("gone"));
  EXPECT_EQ(d.probes.at("p"), 4U);
  // Gauges are levels: the delta reports the later level.
  EXPECT_EQ(d.gauges.at("g"), 9);
  // Histograms subtract count/sum and keep the later summary stats.
  EXPECT_EQ(d.histograms.at("h").count, 2U);
  EXPECT_EQ(d.histograms.at("h").sum, 800U);
  EXPECT_EQ(d.histograms.at("h").max, 500U);
  // The delta serializes through the same deterministic writer.
  EXPECT_NE(d.to_json().find("\"c\":5"), std::string::npos);
}

TEST(Registry, ScopedSnapshotDeltaMeasuresOnlyItsWindow) {
  Registry r;
  r.counter("work").add(100);  // pre-existing load
  const obs::ScopedSnapshotDelta guard(r);
  r.counter("work").add(7);
  const obs::Snapshot d = guard.delta();
  EXPECT_EQ(d.counters.at("work"), 7U);
  EXPECT_EQ(guard.start().counters.at("work"), 100U);
}

#if IDGKA_OBS

// ---------------------------------------------------------- flight recorder

/// RAII: tracing on + clean recorder for a test, everything off after.
struct TraceFixture {
  TraceFixture() {
    obs::clear();
    obs::set_trace_enabled(true);
  }
  ~TraceFixture() {
    obs::set_trace_enabled(false);
    obs::set_ring_capacity(16384);
    obs::clear();
  }
};

TEST(Trace, SpanNestingOrder) {
  TraceFixture fixture;
  obs::set_thread_track("t0");
  {
    OBS_SPAN("outer", "test");
    OBS_INSTANT("mid", "test");
    { OBS_SPAN_ARG("inner", "test", 5); }
  }
  const std::string dump = obs::dump_recent(16);
  const std::size_t outer_b = dump.find("B test/outer");
  const std::size_t mid = dump.find("i test/mid");
  const std::size_t inner_b = dump.find("B test/inner");
  const std::size_t inner_e = dump.find("E test/inner");
  const std::size_t outer_e = dump.find("E test/outer");
  ASSERT_NE(outer_b, std::string::npos) << dump;
  ASSERT_NE(inner_e, std::string::npos) << dump;
  EXPECT_LT(outer_b, mid);
  EXPECT_LT(mid, inner_b);
  EXPECT_LT(inner_b, inner_e);
  EXPECT_LT(inner_e, outer_e);
  EXPECT_NE(dump.find("arg=5"), std::string::npos);
}

TEST(Trace, RingWrapKeepsLastEvents) {
  TraceFixture fixture;
  obs::set_ring_capacity(4);
  obs::clear();  // apply the capacity to this thread's next ring
  obs::set_thread_track("wrap");
  static const char* const kNames[8] = {"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"};
  for (int i = 0; i < 8; ++i) obs::emit(obs::Phase::kInstant, kNames[i], "test");
  const std::string dump = obs::dump_recent(64);
  // Flight-recorder semantics: only the newest 4 events survive the wrap.
  EXPECT_EQ(dump.find("test/e3"), std::string::npos) << dump;
  for (int i = 4; i < 8; ++i) {
    EXPECT_NE(dump.find(std::string("test/") + kNames[i]), std::string::npos) << dump;
  }
  // Oldest-first within the ring.
  EXPECT_LT(dump.find("test/e4"), dump.find("test/e7"));
}

TEST(Trace, CrossThreadTracksAreDeterministicallyOrdered) {
  TraceFixture fixture;
  // Two producer threads, each with its own named track. Registration
  // order is racy; the export must not depend on it.
  auto produce = [](const char* track, const char* name) {
    obs::set_thread_track(track);
    for (int i = 0; i < 3; ++i) obs::emit(obs::Phase::kInstant, name, "test");
  };
  std::thread a(produce, "track-a", "from-a");
  std::thread b(produce, "track-b", "from-b");
  a.join();
  b.join();
  const std::string json = obs::export_chrome_trace();
  // Deterministic tid assignment by sorted track name: track-a -> 1.
  const std::size_t meta_a = json.find(R"("args":{"name":"track-a"})");
  const std::size_t meta_b = json.find(R"("args":{"name":"track-b"})");
  ASSERT_NE(meta_a, std::string::npos) << json;
  ASSERT_NE(meta_b, std::string::npos) << json;
  EXPECT_LT(meta_a, meta_b);
  EXPECT_NE(json.find(R"("name":"from-a")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"from-b")"), std::string::npos);
}

TEST(Trace, DisabledEmitsNothing) {
  obs::clear();
  ASSERT_FALSE(obs::trace_enabled());
  OBS_INSTANT("ghost", "test");
  { OBS_SPAN("ghost-span", "test"); }
  EXPECT_EQ(obs::dump_recent(16), "");
}

// ------------------------------------------------- scenario trace contract

sim::ScenarioConfig obs_scenario() {
  using sim::kUsPerSec;
  sim::ScenarioConfig cfg;
  cfg.name = "obs-trace";
  cfg.topology = sim::Topology::kHierarchical;
  cfg.initial_members = 12;
  cfg.base_id = 100;
  cfg.seed = 4242;
  cfg.duration_us = 60 * kUsPerSec;
  cfg.driver.link = sim::LinkConfig::bursty(0.05);
  cfg.cluster.min_cluster = 3;
  cfg.cluster.max_cluster = 6;
  cfg.trace = {
      {5 * kUsPerSec, sim::TraceEvent::Kind::kJoin, {200}},
      {15 * kUsPerSec, sim::TraceEvent::Kind::kLeave, {103}},
      {30 * kUsPerSec, sim::TraceEvent::Kind::kPartition, {104, 105}},
      {45 * kUsPerSec, sim::TraceEvent::Kind::kMerge, {104, 105}},
  };
  return cfg;
}

TEST(Trace, ScenarioExportIsBitDeterministicAndSpansEveryLayer) {
  TraceFixture fixture;
  const sim::ScenarioConfig cfg = obs_scenario();

  obs::clear();
  const sim::Metrics first_metrics = sim::ScenarioRunner(cfg).run();
  const std::string first = obs::export_chrome_trace();

  obs::clear();
  const sim::Metrics second_metrics = sim::ScenarioRunner(cfg).run();
  const std::string second = obs::export_chrome_trace();

  ASSERT_TRUE(first_metrics.form_success);
  EXPECT_EQ(first_metrics.to_json(), second_metrics.to_json());
  // The whole point: with the virtual clock installed, two same-seed runs
  // export byte-identical traces.
  EXPECT_EQ(first, second);

  // Spans/instants from every instrumented layer are present.
  for (const char* cat : {"\"cat\":\"wire\"", "\"cat\":\"net\"", "\"cat\":\"engine\"",
                          "\"cat\":\"gka\"", "\"cat\":\"cluster\"", "\"cat\":\"sim\""}) {
    EXPECT_NE(first.find(cat), std::string::npos) << cat;
  }
  for (const char* name :
       {"sim.scenario", "sim.op.form", "cluster.rekey", "gka.round", "net.broadcast",
        "net.deposit", "engine.run", "wire.encode"}) {
    EXPECT_NE(first.find(std::string("\"name\":\"") + name + '"'), std::string::npos)
        << name;
  }
  // Valid Chrome trace-event envelope.
  EXPECT_EQ(first.substr(0, 16), "{\"traceEvents\":[");
  EXPECT_NE(first.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Registry, AbsorbsLayerCountersDuringAScenario) {
  Registry& r = Registry::global();
  r.reset();
  const sim::Metrics metrics = sim::ScenarioRunner(obs_scenario()).run();
  ASSERT_TRUE(metrics.form_success);
  EXPECT_GT(r.counter("wire.encodes").value(), 0U);
  EXPECT_GT(r.counter("wire.decodes").value(), 0U);
  EXPECT_GT(r.counter("net.tx_frames").value(), 0U);
  EXPECT_GT(r.counter("net.rx_copies").value(), 0U);
  EXPECT_GT(r.counter("engine.resumes").value(), 0U);
  EXPECT_GT(r.counter("engine.rounds").value(), 0U);
  EXPECT_GT(r.counter("cluster.rekeys").value(), 0U);
  EXPECT_GT(r.histogram("wire.frame_bytes").count(), 0U);
  // The crypto probes surface mpint::op_counts in the snapshot.
  EXPECT_NE(r.snapshot_json().find("\"crypto.exps\":"), std::string::npos);
  const std::string snap = r.snapshot_json();
  const std::size_t pos = snap.find("\"crypto.exps\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(snap[pos + 14], '0');  // prime generation alone costs exps
}

TEST(Registry, LabeledDimensionsAppearDuringAScenario) {
  Registry& r = Registry::global();
  r.reset();
  const sim::Metrics metrics = sim::ScenarioRunner(obs_scenario()).run();
  ASSERT_TRUE(metrics.form_success);
  const std::string snap = r.snapshot_json();
  // ScenarioRunner labels the hierarchical session with the scenario name,
  // so the cluster counters carry a per-group dimension...
  EXPECT_NE(snap.find("\"cluster.rekeys{obs-trace}\":"), std::string::npos) << snap;
  // ...the engine labels resumes per run...
  EXPECT_NE(snap.find("\"engine.resumes{"), std::string::npos) << snap;
  // ...and the bursty link produces per-link drop counters.
  EXPECT_NE(snap.find("\"net.drop{"), std::string::npos) << snap;
}

// The crash-dump contract: an uncaught exception reaches the terminate
// handler installed by install_crash_dump(), which prints the flight
// recorder to stderr AND — when IDGKA_OBS_CRASH_JSON names a file — leaves
// the same events behind as Chrome trace JSON. The child dies; the parent
// validates the artifact parses and holds the pre-crash events.

// Thrown from a noexcept frame so the exception is genuinely uncaught:
// gtest wraps the death statement in a try/catch that would otherwise
// intercept it before std::terminate.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wterminate"
[[noreturn]] void throw_uncaught() noexcept { throw std::runtime_error("uncaught on purpose"); }
#pragma GCC diagnostic pop

TEST(TraceCrashDumpDeathTest, UncaughtExceptionDumpsStderrBannerAndValidJson) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "obs_crash_dump.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("IDGKA_OBS_CRASH_JSON", path.c_str(), 1), 0);
  EXPECT_DEATH(
      {
        obs::clear();
        obs::set_trace_enabled(true);  // installs the crash-dump handlers
        obs::set_thread_track("doomed");
        OBS_INSTANT("crash.prelude", "test");
        { OBS_SPAN("crash.scope", "test"); }
        throw_uncaught();
      },
      "obs flight recorder");
  unsetenv("IDGKA_OBS_CRASH_JSON");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "crash handler did not write " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NO_THROW((void)obs::json::parse(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("crash.prelude"), std::string::npos);
  EXPECT_NE(text.find("crash.scope"), std::string::npos);
}

#endif  // IDGKA_OBS

}  // namespace
}  // namespace idgka
