// Observability overhead: what do the OBS_* macro sites cost?
//
// Runs the n=256 hierarchical churn scenario (the bench_sim_scale workload)
// in two legs:
//
//   * runtime_off  — instrumentation compiled in, tracing disabled: every
//     site pays one relaxed load + branch (plus the registry counters);
//   * full_trace   — tracing enabled, virtual-clock spans from every layer;
//     the exported Chrome trace is written to obs_trace.json.
//
// The legs are INTERLEAVED A/B repetitions (off, on, off, on, ...) so slow
// drift — thermal ramp-up, allocator growth, a noisy CI neighbour — lands
// on both legs evenly instead of biasing whichever leg happens to run
// last; the primary statistic is the median over repetitions (robust to a
// single descheduled run), with the min kept as a secondary field.
//
// The same source also builds under -DIDGKA_OBS=0 (the compiled-out build),
// where it emits a single `compiled_out` leg. Passing
// `--baseline <BENCH_obs.json from that build>` to the normal binary gates
// the contract: runtime-off wall time must stay within 2% of compiled-out
// (median vs median; exits non-zero past the gate).
//
// Results go to BENCH_obs.json (a CI artifact).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/scenario.h"

using namespace idgka;
using namespace idgka::bench;

namespace {

constexpr std::size_t kMembers = 256;
constexpr int kRepeats = 5;
constexpr double kGatePct = 2.0;

sim::ScenarioConfig make_config() {
  sim::ScenarioConfig cfg;
  cfg.name = "obs_overhead_n" + std::to_string(kMembers);
  cfg.topology = sim::Topology::kHierarchical;
  cfg.initial_members = kMembers;
  cfg.base_id = 10'000;
  cfg.seed = 424242;
  cfg.duration_us = 600 * sim::kUsPerSec;
  cfg.driver.link = sim::LinkConfig::bursty(0.05);
  cfg.cluster.min_cluster = 8;
  cfg.cluster.max_cluster = 24;

  std::uint32_t next_id = 90'000;
  sim::SimTime t = 20 * sim::kUsPerSec;
  for (int i = 0; i < 4; ++i) {
    cfg.trace.push_back({t, sim::TraceEvent::Kind::kJoin, {next_id++}});
    t += 20 * sim::kUsPerSec;
    cfg.trace.push_back(
        {t, sim::TraceEvent::Kind::kLeave, {cfg.base_id + 1 + static_cast<std::uint32_t>(i)}});
    t += 20 * sim::kUsPerSec;
  }
  const std::vector<std::uint32_t> squad{cfg.base_id + 20, cfg.base_id + 21, cfg.base_id + 22,
                                         cfg.base_id + 23};
  cfg.trace.push_back({t, sim::TraceEvent::Kind::kPartition, squad});
  t += 40 * sim::kUsPerSec;
  cfg.trace.push_back({t, sim::TraceEvent::Kind::kMerge, squad});
  return cfg;
}

struct Leg {
  std::string name;
  std::vector<double> wall_ms;
  [[nodiscard]] double min_ms() const {
    double best = wall_ms.front();
    for (const double w : wall_ms) best = best < w ? best : w;
    return best;
  }
  [[nodiscard]] double median_ms() const {
    std::vector<double> s = wall_ms;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
  }
};

/// One timed scenario run under the current trace setting.
double run_once(const sim::ScenarioConfig& cfg, const char* leg_name) {
  const auto t0 = std::chrono::steady_clock::now();
  const sim::Metrics metrics = sim::ScenarioRunner(cfg).run();
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  if (!metrics.form_success || !metrics.all_members_agree) {
    std::fprintf(stderr, "FAILED: scenario did not converge in leg %s\n", leg_name);
    std::exit(1);
  }
  return ms;
}

/// legs[name == leg].wall_ms_median of a BENCH_obs.json written by this
/// program (any build). A missing file, leg or field is a hard failure.
double baseline_ms(const std::string& path, const char* leg) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAILED: cannot read baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    const obs::json::JsonValue doc = obs::json::parse(ss.str());
    for (const obs::json::JsonValue& entry : doc.at("legs").as_array()) {
      if (entry.at("name").as_string() == leg) return entry.at("wall_ms_median").as_double();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAILED: baseline %s: %s\n", path.c_str(), e.what());
    std::exit(1);
  }
  std::fprintf(stderr, "FAILED: baseline %s has no %s leg\n", path.c_str(), leg);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  std::printf("=== Observability overhead: n=%zu churn scenario, median of %d (interleaved) ===\n",
              kMembers, kRepeats);

  const sim::ScenarioConfig cfg = make_config();
  std::vector<Leg> legs;
#if IDGKA_OBS
  // Interleaved A/B: every repetition runs both legs back to back, so any
  // drift over the bench's lifetime hits both legs symmetrically.
  Leg off;
  off.name = "runtime_off";
  Leg full;
  full.name = "full_trace";
  obs::set_trace_enabled(false);
  (void)sim::ScenarioRunner(cfg).run();  // warm-up: lazy statics, allocator
  for (int i = 0; i < kRepeats; ++i) {
    obs::set_trace_enabled(false);
    off.wall_ms.push_back(run_once(cfg, off.name.c_str()));

    obs::clear();
    obs::set_trace_enabled(true);
    full.wall_ms.push_back(run_once(cfg, full.name.c_str()));
    obs::set_trace_enabled(false);
    if (i == kRepeats - 1 && obs::export_chrome_trace_file("obs_trace.json")) {
      std::printf("  wrote obs_trace.json (last repetition's flight recorder)\n");
    }
    obs::clear();
  }
  legs.push_back(std::move(off));
  legs.push_back(std::move(full));
#else
  Leg leg;
  leg.name = "compiled_out";
  (void)sim::ScenarioRunner(cfg).run();  // warm-up
  for (int i = 0; i < kRepeats; ++i) leg.wall_ms.push_back(run_once(cfg, leg.name.c_str()));
  legs.push_back(std::move(leg));
#endif
  for (const Leg& leg : legs) {
    std::printf("  %-12s median %8.1f ms (min %8.1f) over %d runs\n", leg.name.c_str(),
                leg.median_ms(), leg.min_ms(), kRepeats);
  }

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "obs_overhead");
#if IDGKA_OBS
  w.kv("mode", "full");
#else
  w.kv("mode", "compiled-out");
#endif
  w.kv("n", kMembers);
  w.kv("interleaved", true);
  w.key("legs").begin_array();
  for (const Leg& leg : legs) {
    w.begin_object();
    w.kv("name", leg.name);
    w.kv("wall_ms_median", leg.median_ms());
    w.kv("wall_ms_min", leg.min_ms());
    w.key("wall_ms_runs").begin_array();
    for (const double ms : leg.wall_ms) w.value(ms);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  int rc = 0;
#if IDGKA_OBS
  if (!baseline_path.empty()) {
    const double off_ms = legs.front().median_ms();
    const double base_ms = baseline_ms(baseline_path, "compiled_out");
    const double overhead_pct = (off_ms - base_ms) / base_ms * 100.0;
    std::printf("  runtime-off vs compiled-out: %.1f ms vs %.1f ms (%+.2f%%, gate %.1f%%)\n",
                off_ms, base_ms, overhead_pct, kGatePct);
    w.key("baseline").begin_object();
    w.kv("wall_ms_median", base_ms);
    w.kv("overhead_pct", overhead_pct);
    w.kv("gate_pct", kGatePct);
    w.end_object();
    if (overhead_pct > kGatePct) {
      std::fprintf(stderr, "FAILED: runtime-off overhead %.2f%% exceeds %.1f%% gate\n",
                   overhead_pct, kGatePct);
      rc = 1;
    }
  }
#else
  (void)baseline_path;
#endif
  w.end_object();

  std::ofstream out("BENCH_obs.json");
  out << w.take() << '\n';
  std::printf("wrote BENCH_obs.json (%zu legs)\n", legs.size());
  return rc;
}
