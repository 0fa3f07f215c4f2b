// Trace analytics: span reconstruction, attribution and critical paths
// over hand-built Chrome trace documents (exact arithmetic), plus the
// JSON reader the analytics are built on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/trace.h"

namespace idgka {
namespace {

using obs::analysis::Report;
using obs::analysis::Span;
using obs::json::JsonParseError;
using obs::json::JsonValue;

// ------------------------------------------------ synthetic trace builder

std::string ev(const char* name, const char* cat, const char* ph, std::uint64_t ts, int tid) {
  char buf[192];
  std::snprintf(buf, sizeof buf, R"({"name":"%s","cat":"%s","ph":"%s","ts":%llu,"pid":1,"tid":%d})",
                name, cat, ph, static_cast<unsigned long long>(ts), tid);
  return buf;
}

std::string meta(const char* track, int tid) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}})", tid,
                track);
  return buf;
}

std::string trace_doc(const std::vector<std::string>& events) {
  std::string out = R"({"traceEvents":[)";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    out += events[i];
  }
  out += R"(],"displayTimeUnit":"ms"})";
  return out;
}

/// One op span with three nested layer spans — every number checked below
/// is exact:
///   sim.op.join [0,100]  self = 100 - 20 - 50 = 30   (cat sim)
///     gka.round [10,30]  self = 20                    (cat gka)
///     cluster.rekey [40,90] self = 50 - 10 = 40       (cat cluster)
///       net.deliver [50,60] self = 10                 (cat net)
std::string nested_op_trace() {
  return trace_doc({
      meta("t", 1),
      ev("sim.op.join", "sim", "B", 0, 1),
      ev("gka.round", "gka", "B", 10, 1),
      ev("gka.round", "gka", "E", 30, 1),
      ev("cluster.rekey", "cluster", "B", 40, 1),
      ev("net.deliver", "net", "B", 50, 1),
      ev("net.deliver", "net", "E", 60, 1),
      ev("cluster.rekey", "cluster", "E", 90, 1),
      ev("done", "sim", "i", 95, 1),
      ev("sim.op.join", "sim", "E", 100, 1),
  });
}

// ------------------------------------------------------------ span trees

TEST(Analysis, BuildSpansReconstructsTreeAndSelfTime) {
  const std::vector<Span> spans = obs::analysis::build_spans(obs::json::parse(nested_op_trace()));
  ASSERT_EQ(spans.size(), 4U);
  // Spans come back in start order.
  EXPECT_EQ(spans[0].name, "sim.op.join");
  EXPECT_EQ(spans[1].name, "gka.round");
  EXPECT_EQ(spans[2].name, "cluster.rekey");
  EXPECT_EQ(spans[3].name, "net.deliver");
  // Tree shape: op is the root, gka and cluster are its children, net
  // nests under cluster.
  EXPECT_EQ(spans[0].parent, Span::kNoParent);
  EXPECT_EQ(spans[1].parent, 0U);
  EXPECT_EQ(spans[2].parent, 0U);
  EXPECT_EQ(spans[3].parent, 2U);
  EXPECT_EQ(spans[0].children, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[3].depth, 2);
  // Durations and exclusive (self) time.
  EXPECT_EQ(spans[0].duration_us(), 100U);
  EXPECT_EQ(spans[0].self_us, 30U);
  EXPECT_EQ(spans[1].self_us, 20U);
  EXPECT_EQ(spans[2].self_us, 40U);
  EXPECT_EQ(spans[3].self_us, 10U);
  for (const Span& s : spans) EXPECT_FALSE(s.truncated);
}

TEST(Analysis, TruncatedSpanClosesAtLastTrackTimestamp) {
  const std::string doc = trace_doc({
      meta("u", 1),
      ev("lost.end", "x", "B", 5, 1),
      ev("tick", "x", "i", 42, 1),  // last event on the track
  });
  const std::vector<Span> spans = obs::analysis::build_spans(obs::json::parse(doc));
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_TRUE(spans[0].truncated);
  EXPECT_EQ(spans[0].end_us, 42U);
}

TEST(Analysis, StrayEndEventsAreDropped) {
  const std::string doc = trace_doc({
      meta("t", 1),
      ev("orphan", "x", "E", 7, 1),  // E with no open B: ring wrapped past it
      ev("real", "x", "B", 10, 1),
      ev("real", "x", "E", 20, 1),
  });
  const std::vector<Span> spans = obs::analysis::build_spans(obs::json::parse(doc));
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].name, "real");
  EXPECT_EQ(spans[0].duration_us(), 10U);
}

TEST(Analysis, TracksNestIndependently) {
  const std::string doc = trace_doc({
      meta("a", 1),
      meta("b", 2),
      ev("outer.a", "x", "B", 0, 1),
      ev("outer.b", "y", "B", 5, 2),   // overlaps track a — NOT a child of it
      ev("outer.b", "y", "E", 50, 2),
      ev("outer.a", "x", "E", 100, 1),
  });
  const std::vector<Span> spans = obs::analysis::build_spans(obs::json::parse(doc));
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].parent, Span::kNoParent);
  EXPECT_EQ(spans[1].parent, Span::kNoParent);
  EXPECT_EQ(spans[0].self_us, 100U);
  EXPECT_EQ(spans[1].self_us, 45U);
}

TEST(Analysis, RejectsNonTraceDocuments) {
  EXPECT_THROW((void)obs::analysis::build_spans(obs::json::parse(R"({"hello":1})")),
               std::invalid_argument);
  EXPECT_THROW((void)obs::analysis::build_spans(obs::json::parse("[1,2]")),
               std::invalid_argument);
}

// ------------------------------------------------------- full report math

TEST(Analysis, ReportAttributesLatencyByLayer) {
  const Report r = obs::analysis::analyze(nested_op_trace());
  EXPECT_EQ(r.span_count, 4U);
  EXPECT_EQ(r.instant_count, 1U);
  EXPECT_EQ(r.truncated_spans, 0U);
  EXPECT_EQ(r.trace_start_us, 0U);
  EXPECT_EQ(r.trace_end_us, 100U);
  // Exclusive time per layer sums to the total traced time.
  ASSERT_TRUE(r.layers.contains("sim"));
  EXPECT_EQ(r.layers.at("sim").self_us, 30U);
  EXPECT_EQ(r.layers.at("gka").self_us, 20U);
  EXPECT_EQ(r.layers.at("cluster").self_us, 40U);
  EXPECT_EQ(r.layers.at("net").self_us, 10U);
  EXPECT_EQ(r.layers.at("cluster").total_us, 50U);  // inclusive
  std::uint64_t total_self = 0;
  for (const auto& [cat, stat] : r.layers) total_self += stat.self_us;
  EXPECT_EQ(total_self, 100U);
}

TEST(Analysis, ParkedRunTimeIsNotEngineWork) {
  // One group script's run: an op, 80 us parked between ops in the run's
  // own frame, another op, 2 us of its own work. A wait inside an op (a
  // round timeout) stays that op's time.
  const Report r = obs::analysis::analyze(trace_doc({
      meta("g#0", 1),
      ev("engine.run", "engine", "B", 0, 1),
      ev("sim.op.form", "sim", "B", 0, 1),
      ev("engine.park", "engine", "i", 4, 1),
      ev("engine.resume", "engine", "i", 6, 1),
      ev("sim.op.form", "sim", "E", 10, 1),
      ev("engine.park", "engine", "i", 10, 1),
      ev("engine.resume", "engine", "i", 90, 1),
      ev("sim.op.join", "sim", "B", 90, 1),
      ev("sim.op.join", "sim", "E", 98, 1),
      ev("engine.run", "engine", "E", 100, 1),
  }));
  EXPECT_EQ(r.layers.at("engine").self_us, 2U);
  EXPECT_EQ(r.layers.at("engine").total_us, 100U);  // inclusive keeps the idle time
  EXPECT_EQ(r.layers.at("sim").self_us, 18U);
}

TEST(Analysis, OpSummaryCarriesBreakdownAndCriticalPath) {
  const Report r = obs::analysis::analyze(nested_op_trace());
  ASSERT_EQ(r.ops.size(), 1U);
  const obs::analysis::OpSummary& op = r.ops.front();
  EXPECT_EQ(op.name, "sim.op.join");
  EXPECT_EQ(op.duration_us, 100U);
  // The op's per-layer breakdown covers its whole subtree and sums to its
  // duration.
  EXPECT_EQ(op.self_us_by_cat.at("sim"), 30U);
  EXPECT_EQ(op.self_us_by_cat.at("gka"), 20U);
  EXPECT_EQ(op.self_us_by_cat.at("cluster"), 40U);
  EXPECT_EQ(op.self_us_by_cat.at("net"), 10U);
  // Critical path follows the longest child at every level:
  // op(100) -> cluster.rekey(50) -> net.deliver(10).
  ASSERT_EQ(op.critical_path.size(), 3U);
  EXPECT_EQ(op.critical_path[0].name, "sim.op.join");
  EXPECT_EQ(op.critical_path[1].name, "cluster.rekey");
  EXPECT_EQ(op.critical_path[2].name, "net.deliver");
  EXPECT_EQ(op.critical_path[1].duration_us, 50U);
}

TEST(Analysis, TopSlowestOrderingAndTopKCap) {
  const Report r2 = obs::analysis::analyze(nested_op_trace(), 2);
  ASSERT_EQ(r2.top_slowest.size(), 2U);
  EXPECT_EQ(r2.spans[r2.top_slowest[0]].name, "sim.op.join");
  EXPECT_EQ(r2.spans[r2.top_slowest[1]].name, "cluster.rekey");
  const Report all = obs::analysis::analyze(nested_op_trace(), 100);
  ASSERT_EQ(all.top_slowest.size(), 4U);  // capped at span count
  for (std::size_t i = 1; i < all.top_slowest.size(); ++i) {
    EXPECT_GE(all.spans[all.top_slowest[i - 1]].duration_us(),
              all.spans[all.top_slowest[i]].duration_us());
  }
}

TEST(Analysis, ReportSerializesToJsonAndMarkdown) {
  const Report r = obs::analysis::analyze(nested_op_trace());
  const std::string json = r.to_json();
  // The report's own JSON parses back and carries the headline numbers.
  const JsonValue doc = obs::json::parse(json);
  EXPECT_EQ(doc.at("spans").as_uint(), 4U);
  EXPECT_TRUE(doc.at("layers").is_object());
  EXPECT_TRUE(doc.at("ops").is_array());
  const std::string md = r.to_markdown();
  EXPECT_NE(md.find("sim.op.join"), std::string::npos);
  EXPECT_NE(md.find("cluster"), std::string::npos);
}

#if IDGKA_OBS
// Round trip: events recorded by the real flight recorder, exported by the
// real exporter, analyzed back — names and nesting must survive.
TEST(Analysis, RoundTripsThroughTheRecorder) {
  obs::clear();
  obs::set_trace_enabled(true);
  obs::TraceState state{{}, 0, "roundtrip"};
  obs::swap_thread_state(state);
  {
    OBS_SPAN("sim.op.form", "sim");
    { OBS_SPAN("gka.round", "gka"); }
    OBS_INSTANT("net.drop", "net");
  }
  obs::set_trace_enabled(false);
  const Report r = obs::analysis::analyze(obs::export_chrome_trace());
  obs::clear();
  EXPECT_EQ(r.span_count, 2U);
  EXPECT_EQ(r.instant_count, 1U);
  ASSERT_EQ(r.ops.size(), 1U);
  EXPECT_EQ(r.ops.front().name, "sim.op.form");
  EXPECT_EQ(r.ops.front().track, "roundtrip");
}
#endif  // IDGKA_OBS

// ------------------------------------------------------------ json reader

TEST(JsonReader, ParsesWriterOutputExactly) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("str", "a\"b\\c\n");
  w.kv("u", std::uint64_t{18446744073709551615ULL});
  w.kv("i", std::int64_t{-42});
  w.kv("d", 1.5);
  w.kv("t", true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().kv("nested", 7).end_object();
  w.end_object();
  const JsonValue doc = obs::json::parse(w.take());
  EXPECT_EQ(doc.at("str").as_string(), "a\"b\\c\n");
  EXPECT_EQ(doc.at("u").as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(doc.at("i").kind(), JsonValue::Kind::kInt);
  EXPECT_DOUBLE_EQ(doc.at("i").as_double(), -42.0);
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 1.5);
  EXPECT_TRUE(doc.at("t").as_bool());
  ASSERT_EQ(doc.at("arr").as_array().size(), 2U);
  EXPECT_EQ(doc.at("arr").as_array()[1].as_uint(), 2U);
  EXPECT_EQ(doc.at("obj").at("nested").as_uint(), 7U);
  // Missing-field behaviour: operator[] is a null value, at() throws.
  EXPECT_TRUE(doc["absent"].is_null());
  EXPECT_THROW((void)doc.at("absent"), std::out_of_range);
}

TEST(JsonReader, StrictnessErrors) {
  EXPECT_THROW((void)obs::json::parse(""), JsonParseError);
  EXPECT_THROW((void)obs::json::parse("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW((void)obs::json::parse("{\"a\":1"), JsonParseError);   // unterminated
  EXPECT_THROW((void)obs::json::parse("[1,]"), JsonParseError);       // trailing comma
  EXPECT_THROW((void)obs::json::parse("\"bad\\q\""), JsonParseError); // bad escape
  EXPECT_THROW((void)obs::json::parse("{'a':1}"), JsonParseError);    // single quotes
  try {
    (void)obs::json::parse("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0U);  // error reports where, not just that
  }
}

TEST(JsonReader, TypedAccessorsRejectMismatches) {
  const JsonValue doc = obs::json::parse(R"({"d":1.5,"u":3})");
  EXPECT_THROW((void)doc.at("d").as_uint(), std::logic_error);  // 1.5 is not a count
  EXPECT_THROW((void)doc.at("u").as_string(), std::logic_error);
  EXPECT_DOUBLE_EQ(doc.at("u").as_double(), 3.0);  // numeric widening is fine
}

TEST(JsonReader, FlattenPathsEveryLeafThroughArraysAndObjects) {
  const auto flat = obs::json::flatten(obs::json::parse(
      R"({"a":{"b":1,"s":"str"},"arr":[10,{"c":2.5,"ok":true}],"top":3,"no":false,)"
      R"("none":null})"));
  ASSERT_EQ(flat.size(), 8U);
  EXPECT_DOUBLE_EQ(flat.at("a.b").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("arr.0").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(flat.at("arr.1.c").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(flat.at("top").as_double(), 3.0);
  EXPECT_EQ(flat.at("a.s").as_string(), "str");
  EXPECT_TRUE(flat.at("arr.1.ok").as_bool());
  EXPECT_FALSE(flat.at("no").as_bool());
  EXPECT_TRUE(flat.at("none").is_null());
}

}  // namespace
}  // namespace idgka
