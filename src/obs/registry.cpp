#include "obs/registry.h"

#include <bit>
#include <cmath>

namespace idgka::obs {

// ---------------------------------------------------------------- Histogram

std::size_t Histogram::bucket_index(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

std::pair<std::uint64_t, std::uint64_t> Histogram::bucket_bounds(std::size_t i) {
  if (i == 0) return {0, 0};
  const std::uint64_t lo = 1ULL << (i - 1);
  const std::uint64_t hi = (i >= 64) ? ~0ULL : (1ULL << i) - 1;
  return {lo, hi};
}

void Histogram::record(std::uint64_t v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~0ULL ? 0 : m;
}

std::uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  // Nearest-rank over the bucket counts (same rank rule as
  // sim::summarize_latency), then linear interpolation inside the bucket,
  // clamped to the tracked global min/max so the endpoints are exact.
  double rank = q / 100.0 * static_cast<double>(n);
  std::uint64_t target = static_cast<std::uint64_t>(std::ceil(rank));
  if (target == 0) target = 1;
  if (target > n) target = n;

  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = bucket(i);
    if (in_bucket == 0) continue;
    if (seen + in_bucket < target) {
      seen += in_bucket;
      continue;
    }
    auto [lo, hi] = bucket_bounds(i);
    // Position of the target rank inside this bucket, in (0, 1].
    const double frac =
        static_cast<double>(target - seen) / static_cast<double>(in_bucket);
    const double est =
        static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
    std::uint64_t v = static_cast<std::uint64_t>(est);
    if (v < min()) v = min();
    if (v > max()) v = max();
    return v;
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Snapshot

Snapshot Snapshot::delta_since(const Snapshot& earlier) const {
  Snapshot d;
  for (const auto& [name, v] : counters) {
    const auto it = earlier.counters.find(name);
    const std::uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    if (v > base) d.counters.emplace(name, v - base);
  }
  for (const auto& [name, v] : probes) {
    const auto it = earlier.probes.find(name);
    const std::uint64_t base = it == earlier.probes.end() ? 0 : it->second;
    if (v > base) d.probes.emplace(name, v - base);
  }
  // Gauges are levels: the delta reports the later level as-is.
  d.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    const auto it = earlier.histograms.find(name);
    const std::uint64_t base_count = it == earlier.histograms.end() ? 0 : it->second.count;
    const std::uint64_t base_sum = it == earlier.histograms.end() ? 0 : it->second.sum;
    if (h.count <= base_count) continue;
    Hist win = h;  // min/max/percentiles stay the later summary's
    win.count = h.count - base_count;
    win.sum = h.sum >= base_sum ? h.sum - base_sum : 0;
    d.histograms.emplace(name, win);
  }
  return d;
}

void Snapshot::write(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("min", h.min);
    w.kv("max", h.max);
    w.kv("p50", h.p50);
    w.kv("p90", h.p90);
    w.kv("p99", h.p99);
    w.end_object();
  }
  w.end_object();
  w.key("probes").begin_object();
  for (const auto& [name, v] : probes) w.kv(name, v);
  w.end_object();
  w.end_object();
}

std::string Snapshot::to_json() const {
  JsonWriter w;
  write(w);
  return w.take();
}

// ----------------------------------------------------------------- Registry

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

// Instruments hold atomics (not movable): try_emplace constructs them in
// place, and node-based map storage keeps their addresses stable forever.

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

std::string Registry::labeled_name(std::string_view base, std::string_view label) {
  // mu_ held by the caller. The family ledger only grows while under the
  // cap, so a hostile label domain costs at most kMaxLabelsPerFamily
  // entries per base name before collapsing into the overflow bucket.
  auto& family = labels_[std::string(base)];
  if (!family.contains(label)) {
    if (family.size() >= kMaxLabelsPerFamily) {
      label = "overflow";
    } else {
      family.emplace(std::string(label), true);
    }
  }
  std::string name;
  name.reserve(base.size() + label.size() + 2);
  name.append(base);
  name.push_back('{');
  name.append(label);
  name.push_back('}');
  return name;
}

Counter& Registry::counter(std::string_view base, std::string_view label) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string name = labeled_name(base, label);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::move(name)).first->second;
}

Gauge& Registry::gauge(std::string_view base, std::string_view label) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string name = labeled_name(base, label);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::move(name)).first->second;
}

Histogram& Registry::histogram(std::string_view base, std::string_view label) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string name = labeled_name(base, label);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::move(name)).first->second;
}

void Registry::register_probe(std::string_view name, Probe probe) {
  const std::lock_guard<std::mutex> lock(mu_);
  probes_[std::string(name)] = std::move(probe);
}

void Registry::write_snapshot(JsonWriter& w) const {
  const std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("min", h.min());
    w.kv("max", h.max());
    w.kv("p50", h.percentile(50.0));
    w.kv("p90", h.percentile(90.0));
    w.kv("p99", h.percentile(99.0));
    w.end_object();
  }
  w.end_object();
  w.key("probes").begin_object();
  for (const auto& [name, probe] : probes_) w.kv(name, probe ? probe() : 0);
  w.end_object();
  w.end_object();
}

std::string Registry::snapshot_json() const {
  JsonWriter w;
  write_snapshot(w);
  return w.take();
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace(name, c.value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace(name, g.value());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace(name, Snapshot::Hist{h.count(), h.sum(), h.min(), h.max(),
                                              h.percentile(50.0), h.percentile(90.0),
                                              h.percentile(99.0)});
  }
  for (const auto& [name, probe] : probes_) s.probes.emplace(name, probe ? probe() : 0);
  return s;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace idgka::obs
