#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/json_writer.h"

namespace idgka::sim {

namespace {

/// Nearest-rank percentile (q in [0, 100]) of an ascending, non-empty
/// sample.
SimTime nearest_rank(const std::vector<SimTime>& sorted_sample, double q) {
  const double rank = q / 100.0 * static_cast<double>(sorted_sample.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted_sample.size()) idx = sorted_sample.size() - 1;
  return sorted_sample[idx];
}

/// The one latency-block writer: the summary's fields, into the object the
/// caller has open.
void write_latency_fields(obs::JsonWriter& w, const std::vector<SimTime>& sample) {
  const LatencySummary s = summarize_latency(sample);
  w.kv("count", s.count);
  w.kv("p50_us", s.p50_us);
  w.kv("p90_us", s.p90_us);
  w.kv("p99_us", s.p99_us);
  w.kv("max_us", s.max_us);
}

}  // namespace

LatencySummary summarize_latency(std::vector<SimTime> sample) {
  if (sample.empty()) return {};
  std::sort(sample.begin(), sample.end());
  return LatencySummary{sample.size(), nearest_rank(sample, 50.0), nearest_rank(sample, 90.0),
                        nearest_rank(sample, 99.0), sample.back()};
}

std::string Metrics::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("scenario", scenario);
  w.kv("topology", topology);
  w.kv("seed", seed);
  w.key("members").begin_object();
  w.kv("initial", members_initial);
  w.kv("final", members_final);
  w.kv("clusters", clusters_final);
  w.end_object();
  w.key("form").begin_object();
  w.kv("success", form_success);
  w.kv("latency_us", form_latency_us);
  w.end_object();
  w.key("rekeys").begin_object();
  w.kv("attempted", rekeys_attempted);
  w.kv("completed", rekeys_completed);
  w.kv("convergence", convergence());
  w.kv("join", events_join);
  w.kv("leave", events_leave);
  w.kv("partition", events_partition);
  w.kv("merge", events_merge);
  w.end_object();
  // Per-operation latency: the block's own fields span every completed
  // operation including form (whose start/end stamps stay in the `form`
  // block above); the kind blocks split the rekeys by membership event.
  w.key("latency").begin_object();
  write_latency_fields(w, op_latencies_us.all);
  for (const auto& [kind, sample] :
       {std::pair{"join", &op_latencies_us.join}, std::pair{"leave", &op_latencies_us.leave},
        std::pair{"partition", &op_latencies_us.partition},
        std::pair{"merge", &op_latencies_us.merge}}) {
    w.key(kind).begin_object();
    write_latency_fields(w, *sample);
    w.end_object();
  }
  w.end_object();
  w.key("air").begin_object();
  w.kv("frames", frames_on_air);
  w.kv("bits", bits_on_air);
  w.kv("encoded_bits", encoded_bits_on_air);
  w.kv("copies_dropped", copies_dropped);
  w.kv("bits_dropped", bits_dropped);
  w.end_object();
  w.key("battery").begin_object();
  w.kv("deaths", deaths);
  w.key("first_death_us");
  if (first_death_us) {
    w.value(*first_death_us);
  } else {
    w.null();
  }
  w.kv("energy_total_mj", energy_total_mj);
  w.end_object();
  w.key("crypto").begin_object();
  w.kv("exps", crypto_exps);
  w.kv("mod_muls", crypto_mod_muls);
  w.kv("mod_sqrs", crypto_mod_sqrs);
  w.kv("multi_exps", crypto_multi_exps);
  w.end_object();
  w.kv("all_members_agree", all_members_agree);
  w.kv("end_time_us", end_time_us);
  w.end_object();
  return w.take();
}

std::size_t MultiGroupMetrics::rekeys_attempted() const {
  std::size_t total = 0;
  for (const Metrics& g : per_group) total += g.rekeys_attempted;
  return total;
}

std::size_t MultiGroupMetrics::rekeys_completed() const {
  std::size_t total = 0;
  for (const Metrics& g : per_group) total += g.rekeys_completed;
  return total;
}

double MultiGroupMetrics::convergence() const {
  const std::size_t attempted = rekeys_attempted();
  return attempted == 0 ? 1.0
                        : static_cast<double>(rekeys_completed()) /
                              static_cast<double>(attempted);
}

bool MultiGroupMetrics::all_groups_agree() const {
  if (per_group.empty()) return false;
  return std::all_of(per_group.begin(), per_group.end(),
                     [](const Metrics& g) { return g.all_members_agree; });
}

std::vector<SimTime> MultiGroupMetrics::all_op_latencies_us() const {
  std::vector<SimTime> all;
  for (const Metrics& g : per_group) {
    all.insert(all.end(), g.op_latencies_us.all.begin(), g.op_latencies_us.all.end());
  }
  return all;
}

std::string MultiGroupMetrics::to_json() const {
  std::uint64_t frames = 0;
  std::uint64_t bits = 0;
  std::uint64_t encoded = 0;
  std::uint64_t drops = 0;
  for (const Metrics& g : per_group) {
    frames += g.frames_on_air;
    bits += g.bits_on_air;
    encoded += g.encoded_bits_on_air;
    drops += g.copies_dropped;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.kv("scenario", scenario);
  w.kv("seed", seed);
  w.kv("groups", per_group.size());
  w.key("aggregate").begin_object();
  w.key("rekeys").begin_object();
  w.kv("attempted", rekeys_attempted());
  w.kv("completed", rekeys_completed());
  w.kv("convergence", convergence());
  w.end_object();
  w.key("latency").begin_object();
  write_latency_fields(w, all_op_latencies_us());
  w.end_object();
  w.key("air").begin_object();
  w.kv("frames", frames);
  w.kv("bits", bits);
  w.kv("encoded_bits", encoded);
  w.kv("copies_dropped", drops);
  w.end_object();
  w.key("engine").begin_object();
  w.kv("resumes", engine_resumes);
  w.kv("max_concurrent_runs", max_concurrent_runs);
  w.end_object();
  w.key("crypto").begin_object();
  w.kv("exps", crypto_exps);
  w.kv("mod_muls", crypto_mod_muls);
  w.kv("mod_sqrs", crypto_mod_sqrs);
  w.kv("multi_exps", crypto_multi_exps);
  w.end_object();
  w.kv("all_groups_agree", all_groups_agree());
  w.kv("end_time_us", end_time_us);
  w.end_object();
  w.key("per_group").begin_array();
  for (const Metrics& g : per_group) w.raw(g.to_json());
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace idgka::sim
