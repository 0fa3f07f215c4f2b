#include "obs/analysis.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/json_writer.h"

namespace idgka::obs::analysis {

namespace {

/// Per-track reconstruction state.
struct TrackState {
  std::string name;                 ///< from the thread_name metadata
  std::vector<std::size_t> stack;   ///< open span indices, innermost last
  std::uint64_t last_ts = 0;
  /// engine.run span the track's run is parked in, and since when.
  std::size_t parked_in = Span::kNoParent;
  std::uint64_t parked_at = 0;
};

std::string format_ms(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

/// Exclusive time of every span in `op`'s subtree, keyed by category.
void accumulate_subtree(const std::vector<Span>& spans, std::size_t idx,
                        std::map<std::string, std::uint64_t>& by_cat) {
  const Span& s = spans[idx];
  by_cat[s.cat] += s.self_us;
  for (const std::size_t child : s.children) accumulate_subtree(spans, child, by_cat);
}

std::vector<PathStep> critical_path(const std::vector<Span>& spans, std::size_t idx) {
  std::vector<PathStep> path;
  for (;;) {
    const Span& s = spans[idx];
    path.push_back({s.name, s.cat, s.duration_us(), s.self_us});
    if (s.children.empty()) break;
    // Longest child wins; ties break on earliest start then span order, so
    // the path is deterministic for a deterministic trace.
    std::size_t best = s.children.front();
    for (const std::size_t child : s.children) {
      const Span& c = spans[child];
      const Span& b = spans[best];
      if (c.duration_us() > b.duration_us() ||
          (c.duration_us() == b.duration_us() && c.start_us < b.start_us)) {
        best = child;
      }
    }
    idx = best;
  }
  return path;
}

}  // namespace

std::vector<Span> build_spans(const json::JsonValue& trace) {
  if (!trace.is_object() || !trace.has("traceEvents")) {
    throw std::invalid_argument("trace analysis: not a Chrome trace export");
  }
  const json::JsonArray& events = trace.at("traceEvents").as_array();

  // Pass 1: track names from the thread_name metadata records.
  std::map<std::uint64_t, TrackState> tracks;
  for (const json::JsonValue& e : events) {
    if (e["ph"].is_string() && e["ph"].as_string() == "M" &&
        e["name"].as_string() == "thread_name") {
      tracks[e.at("tid").as_uint()].name = e.at("args").at("name").as_string();
    }
  }

  // Pass 2: match B/E pairs per track. Spans are strictly LIFO per track
  // (they come from RAII scopes on one thread), so E always closes the
  // innermost open span; a stray E (begin lost to ring wrap) is dropped.
  // A run parked in its own engine.run frame (between operations) is idle,
  // not engine work: each engine.park -> engine.resume interval there is
  // kept out of that span's self time.
  std::vector<Span> spans;
  std::map<std::size_t, std::uint64_t> parked_us;
  for (const json::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    const std::uint64_t tid = e.at("tid").as_uint();
    TrackState& track = tracks[tid];
    if (track.name.empty()) track.name = "tid" + std::to_string(tid);
    const std::uint64_t ts = e.at("ts").as_uint();
    track.last_ts = std::max(track.last_ts, ts);
    if (ph == "B") {
      Span s;
      s.name = e.at("name").as_string();
      s.cat = e.at("cat").as_string();
      s.track = track.name;
      s.start_us = ts;
      s.depth = static_cast<int>(track.stack.size());
      if (!track.stack.empty()) s.parent = track.stack.back();
      const std::size_t idx = spans.size();
      if (s.parent != Span::kNoParent) spans[s.parent].children.push_back(idx);
      spans.push_back(std::move(s));
      track.stack.push_back(idx);
    } else if (ph == "E") {
      if (track.stack.empty()) continue;
      spans[track.stack.back()].end_us = ts;
      track.stack.pop_back();
    } else if (e.at("name").as_string() == "engine.park") {
      const bool in_run = !track.stack.empty() && spans[track.stack.back()].name == "engine.run";
      track.parked_in = in_run ? track.stack.back() : Span::kNoParent;
      track.parked_at = ts;
    } else if (e.at("name").as_string() == "engine.resume" &&
               track.parked_in != Span::kNoParent) {
      parked_us[track.parked_in] += ts - track.parked_at;
      track.parked_in = Span::kNoParent;
    }
    // Other instants only advance last_ts; they carry no duration.
  }

  // Unclosed spans (trace ended mid-op): close at the track's last event.
  for (auto& [tid, track] : tracks) {
    for (const std::size_t idx : track.stack) {
      spans[idx].end_us = std::max(track.last_ts, spans[idx].start_us);
      spans[idx].truncated = true;
    }
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    std::uint64_t busy_us = 0;
    for (const std::size_t child : s.children) busy_us += spans[child].duration_us();
    const auto parked = parked_us.find(i);
    if (parked != parked_us.end()) busy_us += parked->second;
    s.self_us = s.duration_us() >= busy_us ? s.duration_us() - busy_us : 0;
  }
  return spans;
}

Report analyze(std::string_view trace_json, std::size_t top_k) {
  const json::JsonValue doc = json::parse(trace_json);
  Report report;
  report.spans = build_spans(doc);

  std::uint64_t start = ~std::uint64_t{0};
  std::uint64_t end = 0;
  for (const json::JsonValue& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    ++report.event_count;
    if (ph == "i") ++report.instant_count;
    const std::uint64_t ts = e.at("ts").as_uint();
    start = std::min(start, ts);
    end = std::max(end, ts);
  }
  report.trace_start_us = report.event_count == 0 ? 0 : start;
  report.trace_end_us = end;
  report.span_count = report.spans.size();

  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    const Span& s = report.spans[i];
    if (s.truncated) ++report.truncated_spans;
    LayerStat& layer = report.layers[s.cat];
    ++layer.spans;
    layer.self_us += s.self_us;
    layer.total_us += s.duration_us();
    if (s.name.rfind("sim.op.", 0) == 0) {
      OpSummary op;
      op.name = s.name;
      op.track = s.track;
      op.start_us = s.start_us;
      op.duration_us = s.duration_us();
      accumulate_subtree(report.spans, i, op.self_us_by_cat);
      op.critical_path = critical_path(report.spans, i);
      report.ops.push_back(std::move(op));
    }
  }
  std::stable_sort(report.ops.begin(), report.ops.end(),
                   [](const OpSummary& a, const OpSummary& b) {
                     return a.start_us != b.start_us ? a.start_us < b.start_us
                                                     : a.name < b.name;
                   });

  report.top_slowest.resize(report.spans.size());
  for (std::size_t i = 0; i < report.top_slowest.size(); ++i) report.top_slowest[i] = i;
  std::stable_sort(report.top_slowest.begin(), report.top_slowest.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Span& sa = report.spans[a];
                     const Span& sb = report.spans[b];
                     if (sa.duration_us() != sb.duration_us()) {
                       return sa.duration_us() > sb.duration_us();
                     }
                     if (sa.start_us != sb.start_us) return sa.start_us < sb.start_us;
                     return sa.name < sb.name;
                   });
  if (report.top_slowest.size() > top_k) report.top_slowest.resize(top_k);
  return report;
}

void Report::write(JsonWriter& w) const {
  w.begin_object();
  w.kv("events", event_count);
  w.kv("spans", span_count);
  w.kv("instants", instant_count);
  w.kv("truncated_spans", truncated_spans);
  w.kv("trace_start_us", trace_start_us);
  w.kv("trace_end_us", trace_end_us);
  w.key("layers").begin_object();
  for (const auto& [cat, stat] : layers) {
    w.key(cat).begin_object();
    w.kv("spans", stat.spans);
    w.kv("self_us", stat.self_us);
    w.kv("total_us", stat.total_us);
    w.end_object();
  }
  w.end_object();
  w.key("ops").begin_array();
  for (const OpSummary& op : ops) {
    w.begin_object();
    w.kv("name", op.name);
    w.kv("track", op.track);
    w.kv("start_us", op.start_us);
    w.kv("duration_us", op.duration_us);
    w.key("self_us_by_cat").begin_object();
    for (const auto& [cat, us] : op.self_us_by_cat) w.kv(cat, us);
    w.end_object();
    w.key("critical_path").begin_array();
    for (const PathStep& step : op.critical_path) {
      w.begin_object();
      w.kv("name", step.name);
      w.kv("cat", step.cat);
      w.kv("duration_us", step.duration_us);
      w.kv("self_us", step.self_us);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("top_slowest").begin_array();
  for (const std::size_t idx : top_slowest) {
    const Span& s = spans[idx];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.cat);
    w.kv("track", s.track);
    w.kv("start_us", s.start_us);
    w.kv("duration_us", s.duration_us());
    w.kv("self_us", s.self_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string Report::to_json() const {
  JsonWriter w;
  write(w);
  return w.take();
}

std::string Report::to_markdown() const {
  std::string md;
  md += "# Trace report\n\n";
  md += "- events: " + std::to_string(event_count) + " (spans: " + std::to_string(span_count) +
        ", instants: " + std::to_string(instant_count) +
        ", truncated spans: " + std::to_string(truncated_spans) + ")\n";
  md += "- window: [" + format_ms(trace_start_us) + " ms, " + format_ms(trace_end_us) +
        " ms] (" + format_ms(trace_end_us - trace_start_us) + " ms)\n\n";

  md += "## Latency attribution by layer\n\n";
  md += "| layer | spans | self ms | self % | total ms |\n";
  md += "|---|---:|---:|---:|---:|\n";
  std::uint64_t self_total = 0;
  for (const auto& [cat, stat] : layers) self_total += stat.self_us;
  for (const auto& [cat, stat] : layers) {
    const double pct = self_total == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(stat.self_us) /
                                 static_cast<double>(self_total);
    char pct_buf[16];
    std::snprintf(pct_buf, sizeof pct_buf, "%.1f", pct);
    md += "| " + cat + " | " + std::to_string(stat.spans) + " | " + format_ms(stat.self_us) +
          " | " + pct_buf + " | " + format_ms(stat.total_us) + " |\n";
  }

  md += "\n## Operations\n\n";
  if (ops.empty()) {
    md += "_no sim.op.* spans in this trace_\n";
  } else {
    md += "| op | track | start ms | duration ms | layer breakdown (self ms) |\n";
    md += "|---|---|---:|---:|---|\n";
    for (const OpSummary& op : ops) {
      std::string breakdown;
      for (const auto& [cat, us] : op.self_us_by_cat) {
        if (!breakdown.empty()) breakdown += ", ";
        breakdown += cat + " " + format_ms(us);
      }
      md += "| " + op.name + " | " + op.track + " | " + format_ms(op.start_us) + " | " +
            format_ms(op.duration_us) + " | " + breakdown + " |\n";
    }
    md += "\n### Critical paths\n\n";
    for (const OpSummary& op : ops) {
      md += "- `" + op.name + "` @ " + format_ms(op.start_us) + " ms: ";
      for (std::size_t i = 0; i < op.critical_path.size(); ++i) {
        const PathStep& step = op.critical_path[i];
        if (i > 0) md += " -> ";
        md += step.name + " (" + format_ms(step.duration_us) + " ms)";
      }
      md += "\n";
    }
  }

  md += "\n## Slowest spans\n\n";
  md += "| name | layer | track | start ms | duration ms | self ms |\n";
  md += "|---|---|---|---:|---:|---:|\n";
  for (const std::size_t idx : top_slowest) {
    const Span& s = spans[idx];
    md += "| " + s.name + " | " + s.cat + " | " + s.track + " | " + format_ms(s.start_us) +
          " | " + format_ms(s.duration_us()) + " | " + format_ms(s.self_us) + " |\n";
  }
  return md;
}

}  // namespace idgka::obs::analysis
