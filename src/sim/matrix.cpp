#include "sim/matrix.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/json_writer.h"

namespace idgka::sim {

namespace {

/// Member id space every cell shares (same group, different environment).
constexpr std::uint32_t kBaseId = 1000;

std::string format_ms(SimTime us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

std::string format_pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", ratio * 100.0);
  return buf;
}

const char* topology_name(Topology t) {
  return t == Topology::kFlat ? "flat" : "hier";
}

std::uint64_t delta_counter(const obs::Snapshot& delta, const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

}  // namespace

// ---------------------------------------------------------------- presets

LinkClass LinkClass::manet() {
  // The seed's defaults: the paper's 100 kbps radio with 2 ms MAC latency.
  LinkClass c;
  c.name = "manet";
  c.round_timeout_us = 60'000;
  return c;
}

LinkClass LinkClass::leo() {
  LinkClass c;
  c.name = "leo";
  c.link.bandwidth_bps = 1'000'000.0;
  c.link.latency_us = 30'000;
  c.link.jitter_us = 2'000;
  c.round_timeout_us = 150'000;
  return c;
}

LinkClass LinkClass::geo() {
  LinkClass c;
  c.name = "geo";
  c.link.bandwidth_bps = 1'000'000.0;
  c.link.latency_us = 250'000;
  c.link.jitter_us = 5'000;
  // Worst-case copy delay is ~260 ms (serialization + propagation +
  // jitter); the default 60 ms timeout would expire every round before a
  // single copy could land.
  c.round_timeout_us = 700'000;
  return c;
}

std::vector<LinkClass> LinkClass::all() { return {manet(), leo(), geo()}; }

LinkConfig LossModel::apply(const LinkConfig& base) const {
  if (average_loss <= 0.0) {
    LinkConfig out = base;
    out.p_good_bad = 0.0;
    out.loss_good = 0.0;
    out.loss_bad = 0.0;
    return out;
  }
  LinkConfig out;
  if (bursty) {
    out = LinkConfig::bursty(average_loss);
  } else {
    // Independent uniform loss: the chain never leaves the Good state.
    out.p_good_bad = 0.0;
    out.loss_good = average_loss;
    out.loss_bad = average_loss;
  }
  out.bandwidth_bps = base.bandwidth_bps;
  out.latency_us = base.latency_us;
  out.jitter_us = base.jitter_us;
  return out;
}

// ----------------------------------------------------------- MatrixRunner

MatrixRunner::MatrixRunner(MatrixConfig config) : cfg_(std::move(config)) {
  if (cfg_.members < 4) {
    throw std::invalid_argument("MatrixRunner: need at least 4 members");
  }
  if (cfg_.topologies.empty() || cfg_.link_classes.empty() || cfg_.loss_models.empty() ||
      cfg_.churn_levels.empty()) {
    throw std::invalid_argument("MatrixRunner: every matrix dimension needs >= 1 entry");
  }
  for (const LinkClass& link : cfg_.link_classes) link.link.validate();
}

std::vector<TraceEvent> MatrixRunner::churn_trace(const ChurnLevel& level,
                                                  const MatrixConfig& cfg) {
  // Deterministic generator, a pure function of (level, cfg): leave/rejoin
  // pairs with every second pair widened into a partition + merge batch,
  // evenly spaced over the run. The scenario runner's membership guards
  // make the pattern safe regardless of group size (it never empties the
  // group below 2, never re-admits a member twice).
  std::vector<TraceEvent> trace;
  const SimTime step = cfg.duration_us / static_cast<SimTime>(level.events + 1);
  const auto id = [&](std::size_t offset) {
    return kBaseId + static_cast<std::uint32_t>(offset % cfg.members);
  };
  for (std::size_t i = 0; i < level.events; ++i) {
    TraceEvent event;
    event.at_us = step * static_cast<SimTime>(i + 1);
    const std::size_t pair = i / 2;
    if (pair % 2 == 0) {
      event.kind = i % 2 == 0 ? TraceEvent::Kind::kLeave : TraceEvent::Kind::kJoin;
      event.ids = {id(pair)};
    } else {
      event.kind = i % 2 == 0 ? TraceEvent::Kind::kPartition : TraceEvent::Kind::kMerge;
      event.ids = {id(pair + 1), id(pair + 2)};
    }
    trace.push_back(std::move(event));
  }
  return trace;
}

MatrixReport MatrixRunner::run() {
  MatrixReport report;
  report.name = cfg_.name;
  report.seed = cfg_.seed;
  report.members = cfg_.members;

  for (const Topology topology : cfg_.topologies) {
    for (const LinkClass& link : cfg_.link_classes) {
      for (const LossModel& loss : cfg_.loss_models) {
        for (const ChurnLevel& churn : cfg_.churn_levels) {
          MatrixCell cell;
          cell.topology = topology_name(topology);
          cell.link_class = link.name;
          cell.loss_model = loss.name;
          cell.churn = churn.name;
          cell.id = cell.topology + "/" + link.name + "/" + loss.name + "/" + churn.name;

          ScenarioConfig scenario;
          scenario.name = cfg_.name + "/" + cell.id;
          scenario.topology = topology;
          scenario.profile = cfg_.profile;
          scenario.initial_members = cfg_.members;
          scenario.base_id = kBaseId;
          scenario.seed = cfg_.seed;  // same seed per cell: only the
                                      // environment differs across cells
          scenario.duration_us = cfg_.duration_us;
          scenario.cluster = cfg_.cluster;
          scenario.driver.link = loss.apply(link.link);
          scenario.driver.round_timeout_us = link.round_timeout_us;
          scenario.trace = churn_trace(churn, cfg_);

          // Scope the registry delta to this cell: labeled drop / retry
          // counters land in the cell whose run incremented them.
          const obs::ScopedSnapshotDelta guard;
          cell.metrics = ScenarioRunner(std::move(scenario)).run();
          cell.delta = guard.delta();
          report.cells.push_back(std::move(cell));
        }
      }
    }
  }
  return report;
}

// ----------------------------------------------------------- MatrixReport

std::string MatrixReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("matrix", name);
  w.kv("seed", seed);
  w.kv("members", members);
  w.key("cells").begin_array();
  for (const MatrixCell& cell : cells) {
    w.begin_object();
    w.kv("id", cell.id);
    w.kv("topology", cell.topology);
    w.kv("link_class", cell.link_class);
    w.kv("loss_model", cell.loss_model);
    w.kv("churn", cell.churn);
    w.key("metrics").raw(cell.metrics.to_json());
    w.key("delta");
    cell.delta.write(w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string MatrixReport::to_markdown() const {
  std::string md;
  md += "# Scenario matrix: " + name + "\n\n";
  md += "- seed: " + std::to_string(seed) + ", members: " + std::to_string(members) +
        ", cells: " + std::to_string(cells.size()) + "\n\n";
  md += "| cell | form ms | p50 ms | p90 ms | p99 ms | rekeys | convergence % | "
        "copies dropped | rekey retries | agree |\n";
  md += "|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n";
  for (const MatrixCell& cell : cells) {
    const LatencySummary latency = summarize_latency(cell.metrics.op_latencies_us.all);
    md += "| " + cell.id + " | " + format_ms(cell.metrics.form_latency_us) + " | " +
          format_ms(latency.p50_us) + " | " + format_ms(latency.p90_us) + " | " +
          format_ms(latency.p99_us) + " | " +
          std::to_string(cell.metrics.rekeys_completed) + "/" +
          std::to_string(cell.metrics.rekeys_attempted) + " | " +
          format_pct(cell.metrics.convergence()) + " | " +
          std::to_string(cell.metrics.copies_dropped) + " | " +
          std::to_string(delta_counter(cell.delta, "cluster.rekey_retries")) + " | " +
          (cell.metrics.all_members_agree ? "yes" : "NO") + " |\n";
  }

  md += "\n## Labeled metric deltas\n\n";
  bool any = false;
  for (const MatrixCell& cell : cells) {
    std::string lines;
    for (const auto& [counter, v] : cell.delta.counters) {
      if (counter.find('{') == std::string::npos) continue;
      lines += "  - `" + counter + "` = " + std::to_string(v) + "\n";
    }
    if (lines.empty()) continue;
    any = true;
    md += "- " + cell.id + "\n" + lines;
  }
  if (!any) md += "_no labeled counters incremented_\n";
  return md;
}

}  // namespace idgka::sim
