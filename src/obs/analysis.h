// Trace analytics: span trees, latency attribution and critical paths
// reconstructed from an exported Chrome trace.
//
// The flight recorder (obs/trace.h) exports raw begin/end/instant events;
// nothing in the export says *where the time went*. This layer rebuilds
// the structure: per-track span trees from matched B/E pairs, self-time
// per span (duration minus child durations), latency attribution by
// category — the categories are the repo's layers (wire/net/engine/gka/
// cluster/sim) — per-operation summaries for every `sim.op.*` span (one
// per rekey/form/join/leave/partition/merge), each with its own layer
// breakdown and critical path (the longest-child chain from the op to a
// leaf), plus a global top-k of the slowest spans.
//
// Input is the exported JSON (tools/trace_report reads a file; tests feed
// export_chrome_trace() straight back in), so the analytics exercise the
// exporter for free and work on traces recorded by any build.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json_reader.h"

namespace idgka::obs {

class JsonWriter;

namespace analysis {

/// One reconstructed span (a matched B/E pair on one track).
struct Span {
  std::string name;
  std::string cat;
  std::string track;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  /// Duration minus the summed durations of direct children: the time this
  /// span spent in its own frame, the quantity attribution sums. An
  /// engine.run span also leaves out the time its run sat parked in that
  /// frame (engine.park to engine.resume), which is idle, not work.
  std::uint64_t self_us = 0;
  std::size_t parent = kNoParent;  ///< index into the span vector
  std::vector<std::size_t> children;
  int depth = 0;
  /// True when the trace ended (or the ring wrapped) before the end event:
  /// end_us is then the track's last timestamp, not a real close.
  bool truncated = false;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  [[nodiscard]] std::uint64_t duration_us() const { return end_us - start_us; }
};

/// Per-category (= per-layer) attribution totals.
struct LayerStat {
  std::uint64_t spans = 0;
  std::uint64_t self_us = 0;   ///< exclusive time — sums to total busy span time
  std::uint64_t total_us = 0;  ///< inclusive time (overlapping; context only)
};

/// One step of a critical path: the longest-child chain below an op span.
struct PathStep {
  std::string name;
  std::string cat;
  std::uint64_t duration_us = 0;
  std::uint64_t self_us = 0;
};

/// Summary of one operation span (name starts with "sim.op.").
struct OpSummary {
  std::string name;
  std::string track;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  /// Exclusive time inside this op's subtree, keyed by category; sums to
  /// duration_us (the op's own self time is attributed to its category).
  std::map<std::string, std::uint64_t> self_us_by_cat;
  /// Root-to-leaf chain following the longest child at every level.
  std::vector<PathStep> critical_path;
};

struct Report {
  std::size_t event_count = 0;
  std::size_t span_count = 0;
  std::size_t instant_count = 0;
  std::size_t truncated_spans = 0;
  std::uint64_t trace_start_us = 0;
  std::uint64_t trace_end_us = 0;
  std::map<std::string, LayerStat> layers;
  std::vector<OpSummary> ops;           ///< in start order
  std::vector<std::size_t> top_slowest; ///< span indices, slowest first
  std::vector<Span> spans;              ///< every reconstructed span

  /// Deterministic JSON (ops, layers, top-k; spans are summarized, not
  /// dumped — the raw trace already exists).
  [[nodiscard]] std::string to_json() const;
  void write(JsonWriter& w) const;
  /// Human-readable markdown: layer table, per-op table with critical
  /// paths, top-k slow spans.
  [[nodiscard]] std::string to_markdown() const;
};

/// Rebuilds spans from a parsed Chrome trace document (the exporter's
/// shape: {"traceEvents":[...]}). Throws std::invalid_argument when the
/// document is not a trace export.
[[nodiscard]] std::vector<Span> build_spans(const json::JsonValue& trace);

/// Full analysis over an exported trace JSON string.
[[nodiscard]] Report analyze(std::string_view trace_json, std::size_t top_k = 10);

}  // namespace analysis
}  // namespace idgka::obs
