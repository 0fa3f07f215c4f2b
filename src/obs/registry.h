// Process-wide metrics registry: named counters, gauges and log-scale
// histograms with cheap thread-safe updates.
//
// One Registry (Registry::global()) absorbs the counters that were
// previously scattered across layers — net::TrafficStats totals, wire codec
// throughput, engine resume/batch bookkeeping, mpint::op_counts — behind a
// single deterministic snapshot (sorted by name, rendered through
// obs::JsonWriter).
//
// Update cost discipline (these sit on per-frame / per-mod-mul hot paths):
//   * instruments are created once (mutex-guarded get-or-create) and held
//     by reference — the idiom is a function-local static:
//       static obs::Counter& c = obs::Registry::global().counter("net.tx");
//       c.add(1);
//   * every update is a relaxed atomic RMW, no locks, no allocation;
//   * existing structs (TrafficStats, OpCounts) are NOT replaced — layers
//     either bump a registry counter at the same site or expose a Probe
//     (a callback sampled at snapshot time) over their own totals.
//
// Instrument references returned by the registry stay valid for the
// process lifetime (instruments are never destroyed). A region reads its
// own increments through ScopedSnapshotDelta, never by zeroing the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json_writer.h"

namespace idgka::obs {

/// Monotonic event counter: one relaxed atomic, like Gauge, Histogram and
/// the mpint op counters.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written / high-watermark value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` when larger (high-watermark semantics).
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket base-2 log-scale histogram of non-negative samples.
///
/// Bucket i counts samples whose bit width is i: bucket 0 holds the value
/// 0, bucket i (i >= 1) holds [2^(i-1), 2^i). 65 buckets cover the full
/// uint64 range with no configuration and no allocation; record() is two
/// relaxed RMWs plus two bounded CAS loops (min/max).
///
/// percentile() answers from the bucket counts by nearest-rank over
/// buckets, linearly interpolated inside the winning bucket — exact for
/// the tracked min/max endpoints, within one octave everywhere else (the
/// obs test pins both properties).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t min() const;  ///< 0 when empty
  [[nodiscard]] std::uint64_t max() const;  ///< 0 when empty
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Index of the bucket `v` lands in (exposed for the boundary tests).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);
  /// Inclusive value range of bucket i: [lo, hi].
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> bucket_bounds(std::size_t i);

  /// Estimated q-th percentile (q in [0, 100]); 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

/// Callback sampled at snapshot time — adapts an existing counter that
/// lives outside the registry (mpint::op_counts, a TrafficStats total).
using Probe = std::function<std::uint64_t()>;

/// One parseable point-in-time capture of a Registry: every counter, gauge
/// and histogram value plus every probe *sampled at capture time* — so a
/// delta between two snapshots also covers the cumulative externals the
/// probes adapt (crypto.exps over a window, not over the process).
///
/// Snapshots subtract: delta_since(earlier) isolates the increments of one
/// region (a matrix cell, one test) from process-lifetime totals.
struct Snapshot {
  struct Hist {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Hist> histograms;
  std::map<std::string, std::uint64_t> probes;

  /// Increments since `earlier`: counters and probes subtract (clamped at
  /// zero — a probe whose external total went down reads as no increment,
  /// never an underflow); gauges keep this snapshot's value (they are
  /// levels, not totals); histograms subtract count/sum and keep this
  /// snapshot's min/max/percentiles (octave-resolution summaries do not
  /// subtract).
  /// Instruments with a zero counter/count delta are omitted, so a cell's
  /// delta lists exactly the instruments the cell touched.
  [[nodiscard]] Snapshot delta_since(const Snapshot& earlier) const;

  /// Deterministic JSON, sections sorted by instrument name:
  ///   {"counters":{...},"gauges":{...},"histograms":{"h":{count,sum,min,
  ///    max,p50,p90,p99}},"probes":{...}}
  void write(JsonWriter& w) const;
};

class Registry {
 public:
  /// The process-wide registry every instrumented layer uses.
  static Registry& global();

  /// Get-or-create by name. The returned reference is valid forever.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // --- Labeled counters (low-cardinality dimensions) ---
  //
  // A labeled counter is an ordinary counter named `base{label}` —
  // it sorts next to its family in every snapshot and needs no separate
  // export shape. Lookup cost is one mutex-guarded map find per call (no
  // function-local-static caching is possible when the label varies), so
  // labeled updates belong on *rare* paths (drops, retries, rekeys) or
  // behind a reference resolved once and cached by the caller (the engine
  // caches a per-run resumes counter at submit time).
  //
  // Cardinality is capped per family: after kMaxLabelsPerFamily distinct
  // labels, further labels coalesce into `base{overflow}` — a registry
  // can never be blown up by an unbounded label domain (n^2 link pairs).
  static constexpr std::size_t kMaxLabelsPerFamily = 128;

  Counter& counter(std::string_view base, std::string_view label);

  /// Registers (or replaces) a snapshot-time probe.
  void register_probe(std::string_view name, Probe probe);

  /// Structured capture of every instrument + probe (see Snapshot);
  /// Snapshot::write renders it.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// Full instrument name of (base, label), enforcing the per-family cap
  /// under mu_: past the cap the label collapses to "overflow".
  std::string labeled_name(std::string_view base, std::string_view label);

  mutable std::mutex mu_;
  // node-based maps: instrument addresses are stable across inserts.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Probe, std::less<>> probes_;
  /// Distinct labels seen per family ("base" -> set of accepted labels).
  std::map<std::string, std::map<std::string, bool, std::less<>>, std::less<>> labels_;
};

/// RAII snapshot-delta guard: captures Registry state at construction so a
/// region (one matrix cell, one test body) can read exactly its own
/// increments — delta() is "everything since the guard was built",
/// independent of process-lifetime totals and with probes re-sampled on
/// both sides. Guards nest and never disturb concurrent readers.
class ScopedSnapshotDelta {
 public:
  explicit ScopedSnapshotDelta(const Registry& registry = Registry::global())
      : registry_(registry), start_(registry.snapshot()) {}

  /// Increments between construction and now.
  [[nodiscard]] Snapshot delta() const { return registry_.snapshot().delta_since(start_); }
  /// The raw starting snapshot.
  [[nodiscard]] const Snapshot& start() const { return start_; }

 private:
  const Registry& registry_;
  Snapshot start_;
};

}  // namespace idgka::obs
