// Trace spans + per-thread ring-buffer flight recorder.
//
// Every instrumented layer emits timestamped events — RAII spans
// (OBS_SPAN), instants (OBS_INSTANT) — into a fixed-capacity ring buffer
// owned by the emitting thread, or by the engine::ProtocolRun it hosts (see
// TraceState). Writes are lock-free: each thread appends to its own ring (a
// mutex is taken exactly once per ring, to register it). When the ring wraps, the oldest events are overwritten —
// flight-recorder semantics: the recorder always holds the last N events
// per thread, ready to be dumped on an uncaught exception / assertion
// failure (install_crash_dump) or exported as Chrome trace-event JSON
// (export_chrome_trace — open in Perfetto or chrome://tracing).
//
// Timestamps come from the active clock source: under the discrete-event
// scheduler the sim installs a virtual clock (ScopedClock over
// sim::Scheduler::now), so sim traces are a pure function of the seeds and
// two same-seed runs export byte-identical JSON (pinned by obs_test);
// without an installed clock, events are stamped from steady_clock.
//
// Cost discipline:
//   * compile time: building with IDGKA_OBS=0 turns every OBS_* macro into
//     nothing — no event structs, no branches, no strings in the binary;
//   * runtime: tracing is OFF by default; every macro's disabled cost is a
//     single relaxed load + branch (the ≤2% bench gate in BENCH_obs.json);
//   * enabled: one ring slot write, no allocation (after the first event
//     of a thread), no locks.
//
// Event names/categories must be string literals (or otherwise outlive the
// recorder) — the ring stores the pointers, not copies.
#pragma once

#ifndef IDGKA_OBS
#define IDGKA_OBS 1
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/registry.h"  // OBS_COUNT / OBS_RECORD resolve instruments

namespace idgka::obs {

// ------------------------------------------------------------ enable flags

namespace detail {
extern std::atomic<bool> g_trace_enabled;
struct Ring;
}  // namespace detail

/// Single-branch runtime check every trace macro performs first.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turns event recording on/off. Also honoured at startup from the
/// IDGKA_OBS_TRACE environment variable (any non-empty value but "0").
/// The first enable installs the crash-dump hooks (install_crash_dump).
void set_trace_enabled(bool enabled);

// ------------------------------------------------------------ clock source

/// Current trace timestamp in microseconds: the installed clock source, or
/// steady_clock (relative to process start) when none is installed.
[[nodiscard]] std::uint64_t now_us();

using ClockFn = std::uint64_t (*)(const void* ctx);

/// Installs `fn(ctx)` as the active clock source; restores the previous
/// source on destruction. The sim runners wrap each run in one of these
/// over the run's Scheduler so every event carries virtual time.
class ScopedClock {
 public:
  ScopedClock(ClockFn fn, const void* ctx);
  ~ScopedClock();
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  ClockFn prev_fn_;
  const void* prev_ctx_;
};

// ------------------------------------------------------------------ events

enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };

struct Event {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;  ///< per-thread monotonic (survives ring wrap)
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t arg = 0;
  Phase phase = Phase::kInstant;
  bool has_arg = false;
};

/// Appends one event to the calling thread's ring (no-op when tracing is
/// disabled). Prefer the OBS_* macros, which compile out under
/// IDGKA_OBS=0.
void emit(Phase phase, const char* name, const char* cat);
void emit(Phase phase, const char* name, const char* cat, std::uint64_t arg);

/// Starts the calling thread on a fresh ring under `track` in exports and
/// dumps, from its next event on. Track names — and therefore exports —
/// are deterministic where thread registration order is not.
void set_thread_track(std::string track);

/// A ring and the track it exports under. Every thread has one; the engine
/// swaps a ProtocolRun's onto whichever worker hosts the run.
struct TraceState {
  std::shared_ptr<detail::Ring> ring;
  std::uint64_t generation = 0;  ///< recorder generation `ring` belongs to
  std::string track;             ///< name for the next ring registration
};
/// Exchanges the calling thread's trace state with `state`.
void swap_thread_state(TraceState& state);

/// Ring capacity (events per thread) for rings created after the call.
/// Must be a power of two >= 2; default 16384.
void set_ring_capacity(std::size_t capacity);

/// Drops every registered ring and thread track and resets the capacity
/// default. Live threads lazily re-register on their next event. Called
/// between runs that must export identical traces from event zero.
void clear();

/// RAII span: kBegin at construction, kEnd at destruction (both no-ops
/// when tracing is disabled *at construction time*).
class Span {
 public:
  Span(const char* name, const char* cat) {
    if (trace_enabled()) {
      name_ = name;
      cat_ = cat;
      emit(Phase::kBegin, name, cat);
    }
  }
  Span(const char* name, const char* cat, std::uint64_t arg) {
    if (trace_enabled()) {
      name_ = name;
      cat_ = cat;
      emit(Phase::kBegin, name, cat, arg);
    }
  }
  ~Span() {
    if (name_ != nullptr) emit(Phase::kEnd, name_, cat_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
};

// --------------------------------------------------------------- exporters

/// Chrome trace-event JSON over every recorded event, ordered by
/// (timestamp, track, per-thread sequence) with tracks numbered in sorted
/// name order — fully deterministic for a deterministic producer. Open the
/// output in Perfetto (ui.perfetto.dev) or chrome://tracing.
[[nodiscard]] std::string export_chrome_trace();
/// Writes export_chrome_trace() to `path`; returns false on I/O failure.
bool export_chrome_trace_file(const std::string& path);

/// Human-readable dump of the most recent `max_events` events across all
/// rings (oldest first) — the flight-recorder readout.
[[nodiscard]] std::string dump_recent(std::size_t max_events);

/// Installs the last-N-events dump on std::terminate (uncaught exception)
/// and SIGABRT (assert). Idempotent; chained to the previous terminate
/// handler. Installed automatically by the first set_trace_enabled(true).
void install_crash_dump();

}  // namespace idgka::obs

// ------------------------------------------------------------------ macros
//
// IDGKA_OBS=0 compiles every instrumentation site out entirely (the CI
// obs-off build catches #ifdef rot); otherwise the disabled-at-runtime
// cost is one relaxed load + branch per site.

#if IDGKA_OBS

#define IDGKA_OBS_CONCAT2(a, b) a##b
#define IDGKA_OBS_CONCAT(a, b) IDGKA_OBS_CONCAT2(a, b)

/// RAII span covering the enclosing scope.
#define OBS_SPAN(name, cat) \
  ::idgka::obs::Span IDGKA_OBS_CONCAT(obs_span_, __COUNTER__)(name, cat)
/// RAII span with a numeric argument attached to its begin event.
#define OBS_SPAN_ARG(name, cat, arg)                                 \
  ::idgka::obs::Span IDGKA_OBS_CONCAT(obs_span_, __COUNTER__)(       \
      name, cat, static_cast<std::uint64_t>(arg))
/// Point event.
#define OBS_INSTANT(name, cat)                                     \
  do {                                                             \
    if (::idgka::obs::trace_enabled())                             \
      ::idgka::obs::emit(::idgka::obs::Phase::kInstant, name, cat); \
  } while (0)
/// Point event with a numeric argument.
#define OBS_INSTANT_ARG(name, cat, arg)                             \
  do {                                                              \
    if (::idgka::obs::trace_enabled())                              \
      ::idgka::obs::emit(::idgka::obs::Phase::kInstant, name, cat,  \
                         static_cast<std::uint64_t>(arg));          \
  } while (0)
/// Bumps a process-wide registry counter; `name` must be a string
/// literal (the instrument is resolved once per site).
#define OBS_COUNT(name, n)                                                  \
  do {                                                                      \
    static ::idgka::obs::Counter& obs_counter_site =                        \
        ::idgka::obs::Registry::global().counter(name);                     \
    obs_counter_site.add(static_cast<std::uint64_t>(n));                    \
  } while (0)
/// Records into a process-wide registry histogram (same resolution rule).
#define OBS_RECORD(name, v)                                                 \
  do {                                                                      \
    static ::idgka::obs::Histogram& obs_hist_site =                         \
        ::idgka::obs::Registry::global().histogram(name);                   \
    obs_hist_site.record(static_cast<std::uint64_t>(v));                    \
  } while (0)
/// Bumps a labeled counter (`base{label}`). The label is resolved on every
/// call (mutex + map lookup) — rare-path sites only (drops, retries); hot
/// paths should cache the Counter& from Registry::counter(base, label).
#define OBS_COUNT_LABELED(base, label, n)                                   \
  ::idgka::obs::Registry::global().counter(base, label).add(                \
      static_cast<std::uint64_t>(n))

#else  // IDGKA_OBS == 0

#define OBS_SPAN(name, cat) \
  do {                      \
  } while (0)
#define OBS_SPAN_ARG(name, cat, arg) \
  do {                               \
  } while (0)
#define OBS_INSTANT(name, cat) \
  do {                         \
  } while (0)
#define OBS_INSTANT_ARG(name, cat, arg) \
  do {                                  \
  } while (0)
#define OBS_COUNT(name, n) \
  do {                     \
  } while (0)
#define OBS_RECORD(name, v) \
  do {                      \
  } while (0)
#define OBS_COUNT_LABELED(base, label, n) \
  do {                                    \
  } while (0)

#endif  // IDGKA_OBS
