// Scenario-matrix runner: cell coverage, same-seed determinism, scoped
// registry deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/json_reader.h"
#include "obs/registry.h"
#include "sim/matrix.h"

namespace idgka {
namespace {

using obs::json::JsonValue;
using sim::ChurnLevel;
using sim::LinkClass;
using sim::MatrixConfig;
using sim::MatrixReport;
using sim::MatrixRunner;

/// Test-sized sweep that still spans every axis the issue cares about:
/// 2 topologies x 3 link classes (manet/leo/geo) x 2 loss models x 1 churn
/// level = 12 cells.
MatrixConfig small_config() {
  MatrixConfig cfg;
  cfg.name = "matrix-test";
  cfg.seed = 77;
  cfg.members = 8;
  cfg.duration_us = 90 * sim::kUsPerSec;
  cfg.loss_models = {{"clean", 0.0, false}, {"bursty10", 0.10, true}};
  cfg.churn_levels = {{"calm", 2}};
  return cfg;
}

TEST(Matrix, SweepCoversEveryCellAndConverges) {
  obs::Registry::global().reset();
  const MatrixReport report = MatrixRunner(small_config()).run();
  ASSERT_EQ(report.cells.size(), 12U);  // 2 topo x 3 link x 2 loss x 1 churn
  std::set<std::string> ids;
  for (const sim::MatrixCell& cell : report.cells) {
    ids.insert(cell.id);
    EXPECT_EQ(cell.id, cell.topology + "/" + cell.link_class + "/" + cell.loss_model + "/" +
                           cell.churn);
    // Every environment — including GEO at ~250 ms with bursty loss — must
    // still form a group and agree on the key.
    EXPECT_TRUE(cell.metrics.form_success) << cell.id;
    EXPECT_TRUE(cell.metrics.all_members_agree) << cell.id;
    const JsonValue latency = obs::json::parse(cell.metrics.to_json()).at("latency");
    EXPECT_GT(latency.at("p50_us").as_uint(), 0U) << cell.id;
    EXPECT_LE(latency.at("p50_us").as_uint(), latency.at("p90_us").as_uint()) << cell.id;
    EXPECT_LE(latency.at("p90_us").as_uint(), latency.at("p99_us").as_uint()) << cell.id;
    EXPECT_LE(latency.at("p99_us").as_uint(), latency.at("max_us").as_uint()) << cell.id;
  }
  EXPECT_EQ(ids.size(), report.cells.size());  // ids are unique
  // Propagation delay dominates op latency: the same sweep under GEO must
  // be slower than under MANET (the comparative claim the matrix exists
  // to surface).
  const auto p50 = [&](const std::string& id) {
    for (const sim::MatrixCell& cell : report.cells) {
      if (cell.id == id) return sim::summarize_latency(cell.metrics.op_latencies_us.all).p50_us;
    }
    ADD_FAILURE() << "no cell " << id;
    return sim::SimTime{0};
  };
  EXPECT_LT(p50("flat/manet/clean/calm"), p50("flat/geo/clean/calm"));

#if IDGKA_OBS
  // The scoped delta attributes labeled increments to the cell that caused
  // them: hierarchical cells carry per-group rekey labels, lossy cells
  // carry per-link drop counters.
  bool saw_labeled_rekey = false;
  bool saw_labeled_drop = false;
  for (const sim::MatrixCell& cell : report.cells) {
    for (const auto& [name, v] : cell.delta.counters) {
      if (name.rfind("cluster.rekeys{", 0) == 0 && cell.topology == "hier") {
        saw_labeled_rekey = true;
        // The label is this cell's scenario, not another cell's.
        EXPECT_NE(name.find(cell.id), std::string::npos) << name << " in " << cell.id;
      }
      if (name.rfind("net.drop{", 0) == 0) {
        saw_labeled_drop = true;
        EXPECT_NE(cell.loss_model, "clean") << name << " leaked into " << cell.id;
      }
    }
  }
  EXPECT_TRUE(saw_labeled_rekey);
  EXPECT_TRUE(saw_labeled_drop);
#endif
}

TEST(Matrix, SameSeedReportIsByteIdentical) {
  // The registry is process-global and histogram summaries are cumulative,
  // so run-twice determinism is defined over a reset registry (the CI
  // smoke job gets it for free: fresh process per run).
  obs::Registry::global().reset();
  const std::string first = MatrixRunner(small_config()).run().to_json();
  obs::Registry::global().reset();
  const std::string second = MatrixRunner(small_config()).run().to_json();
  EXPECT_EQ(first, second);

  // And the JSON is a parseable report with the full cell set.
  const JsonValue doc = obs::json::parse(first);
  EXPECT_EQ(doc.at("matrix").as_string(), "matrix-test");
  EXPECT_EQ(doc.at("seed").as_uint(), 77U);
  ASSERT_EQ(doc.at("cells").as_array().size(), 12U);
  const JsonValue& cell = doc.at("cells").as_array().front();
  EXPECT_FALSE(cell.has("latency"));
  EXPECT_TRUE(cell.at("metrics").at("latency").at("p50_us").is_number());
  EXPECT_TRUE(cell.at("metrics").at("rekeys").at("convergence").is_number());
  EXPECT_TRUE(cell.at("delta").is_object());
}

TEST(Matrix, MarkdownListsEveryCell) {
  obs::Registry::global().reset();
  const MatrixReport report = MatrixRunner(small_config()).run();
  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("| cell |"), std::string::npos);
  for (const sim::MatrixCell& cell : report.cells) {
    EXPECT_NE(md.find("| " + cell.id + " |"), std::string::npos) << cell.id;
  }
}

TEST(Matrix, ChurnTraceIsDeterministicAndOrdered) {
  const MatrixConfig cfg = small_config();
  const ChurnLevel level{"churny", 8};
  const std::vector<sim::TraceEvent> a = MatrixRunner::churn_trace(level, cfg);
  const std::vector<sim::TraceEvent> b = MatrixRunner::churn_trace(level, cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_us, b[i].at_us);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].ids, b[i].ids);
  }
  // Events land strictly inside the scenario window, in time order.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i].at_us, 0U);
    EXPECT_LT(a[i].at_us, cfg.duration_us);
    if (i > 0) EXPECT_GE(a[i].at_us, a[i - 1].at_us);
  }
  // A calmer level generates fewer events.
  EXPECT_GT(a.size(), MatrixRunner::churn_trace({"calm", 2}, cfg).size());
}

}  // namespace
}  // namespace idgka
