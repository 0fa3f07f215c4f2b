#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json_writer.h"

namespace idgka::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};

// -------------------------------------------------------------- ring store

struct Ring {
  explicit Ring(std::string track_name)
      : track(std::move(track_name)), slots(kRingCapacity) {}

  /// Copies out the live events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const {
    const std::uint64_t n = next.load(std::memory_order_acquire);
    const std::uint64_t live = std::min<std::uint64_t>(n, slots.size());
    std::vector<Event> out;
    out.reserve(live);
    for (std::uint64_t i = n - live; i < n; ++i) {
      out.push_back(slots[i & (slots.size() - 1)]);
    }
    return out;
  }

  std::string track;
  std::vector<Event> slots;          ///< kRingCapacity, a power of two
  std::atomic<std::uint64_t> next{0};  ///< total events ever written
};
}  // namespace detail

namespace {

// ------------------------------------------------------------ clock source
//
// Two relaxed atomics, written fn-last on install and fn-first on clear.
// The producers (run bodies, on any worker) and the installer (the host that
// owns the scheduler) never race in practice: the sim installs the clock
// before submitting any run and uninstalls after the final drain.

std::atomic<ClockFn> g_clock_fn{nullptr};
std::atomic<const void*> g_clock_ctx{nullptr};

std::uint64_t steady_now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

using detail::Ring;

/// Registered rings + generation. clear() bumps the generation, which
/// invalidates every thread's cached ring pointer: the next emit lazily
/// registers a fresh ring, so two back-to-back runs both record from event
/// zero (the trace-determinism contract).
struct Recorder {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  std::uint64_t generation = 1;
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during teardown
  return *r;
}

thread_local TraceState t_state;

Ring& thread_ring() {
  Recorder& rec = recorder();
  TraceState& st = t_state;
  if (!st.ring || st.generation != rec.generation) {
    const std::lock_guard<std::mutex> lock(rec.mu);
    std::string track = st.track.empty() ? std::string("thread") : st.track;
    st.ring = std::make_shared<Ring>(std::move(track));
    st.generation = rec.generation;
    rec.rings.push_back(st.ring);
  }
  return *st.ring;
}

void do_emit(Phase phase, const char* name, const char* cat, std::uint64_t arg,
             bool has_arg) {
  Ring& ring = thread_ring();
  const std::uint64_t seq = ring.next.load(std::memory_order_relaxed);
  Event& slot = ring.slots[seq & (ring.slots.size() - 1)];
  slot.ts_us = now_us();
  slot.seq = seq;
  slot.name = name;
  slot.cat = cat;
  slot.arg = arg;
  slot.has_arg = has_arg;
  slot.phase = phase;
  ring.next.store(seq + 1, std::memory_order_release);
}

/// All live events across all rings, with their track names, ordered by
/// (timestamp, track, per-thread seq). Ties between identically-named
/// tracks fall back to ring registration order (stable sort), which is the
/// only nondeterministic input — the engine avoids it by making run track
/// names unique ("<name>#<id>").
struct TrackedEvent {
  const std::string* track;
  Event event;
};

std::vector<TrackedEvent> collect_sorted() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Recorder& rec = recorder();
    const std::lock_guard<std::mutex> lock(rec.mu);
    rings = rec.rings;
  }
  std::vector<TrackedEvent> events;
  for (const auto& ring : rings) {
    for (Event& e : ring->snapshot()) events.push_back({&ring->track, e});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TrackedEvent& a, const TrackedEvent& b) {
                     if (a.event.ts_us != b.event.ts_us) return a.event.ts_us < b.event.ts_us;
                     if (*a.track != *b.track) return *a.track < *b.track;
                     return a.event.seq < b.event.seq;
                   });
  return events;
}

// --------------------------------------------------------------- crash dump

std::terminate_handler g_prev_terminate = nullptr;

void dump_to_stderr() {
  const std::string dump = dump_recent(64);
  if (dump.empty()) return;
  std::fputs("\n=== obs flight recorder (last events, oldest first) ===\n", stderr);
  std::fputs(dump.c_str(), stderr);
  std::fputs("=== end flight recorder ===\n", stderr);
  // Machine-readable companion: IDGKA_OBS_CRASH_JSON names a file that
  // receives the full ring contents as Chrome trace JSON on the way down —
  // what a human reads on stderr, tooling reads from here (trace_report
  // accepts it directly; the crash-dump death test validates it parses).
  const char* json_path = std::getenv("IDGKA_OBS_CRASH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    export_chrome_trace_file(json_path);
  }
}

[[noreturn]] void terminate_with_dump() {
  dump_to_stderr();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

extern "C" void abort_with_dump(int) {
  // Best-effort: fprintf/malloc are not async-signal-safe, but SIGABRT
  // from assert() arrives synchronously on the failing thread and the
  // process is about to die anyway — the flight recorder's whole purpose.
  dump_to_stderr();
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

}  // namespace

// ------------------------------------------------------------- public API

std::uint64_t now_us() {
  const ClockFn fn = g_clock_fn.load(std::memory_order_acquire);
  if (fn == nullptr) return steady_now_us();
  return fn(g_clock_ctx.load(std::memory_order_acquire));
}

ScopedClock::ScopedClock(ClockFn fn, const void* ctx)
    : prev_fn_(g_clock_fn.load(std::memory_order_acquire)),
      prev_ctx_(g_clock_ctx.load(std::memory_order_acquire)) {
  g_clock_ctx.store(ctx, std::memory_order_release);
  g_clock_fn.store(fn, std::memory_order_release);
}

ScopedClock::~ScopedClock() {
  g_clock_fn.store(prev_fn_, std::memory_order_release);
  g_clock_ctx.store(prev_ctx_, std::memory_order_release);
}

void set_trace_enabled(bool enabled) {
  if (enabled) install_crash_dump();
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {
/// Startup default from the environment (evaluated once, at static init).
const bool g_env_enable = [] {
  const char* v = std::getenv("IDGKA_OBS_TRACE");
  if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
    set_trace_enabled(true);
  }
  // IDGKA_OBS_TRACE_FILE=<path> enables tracing AND exports the recorded
  // trace to <path> at normal process exit — any example or test becomes a
  // trace producer for tools/trace_report without code changes.
  const char* path = std::getenv("IDGKA_OBS_TRACE_FILE");
  if (path != nullptr && path[0] != '\0') {
    set_trace_enabled(true);
    static const std::string g_trace_path = path;
    std::atexit([] { export_chrome_trace_file(g_trace_path); });
  }
  return true;
}();
}  // namespace

void emit(Phase phase, const char* name, const char* cat) {
  if (!trace_enabled()) return;
  do_emit(phase, name, cat, 0, false);
}

void emit(Phase phase, const char* name, const char* cat, std::uint64_t arg) {
  if (!trace_enabled()) return;
  do_emit(phase, name, cat, arg, true);
}

void swap_thread_state(TraceState& state) { std::swap(t_state, state); }

void clear() {
  Recorder& rec = recorder();
  const std::lock_guard<std::mutex> lock(rec.mu);
  rec.rings.clear();
  ++rec.generation;
}

std::string export_chrome_trace() {
  const std::vector<TrackedEvent> events = collect_sorted();

  // Deterministic tid assignment: sorted track-name order.
  std::map<std::string, int> tids;
  for (const TrackedEvent& te : events) tids.emplace(*te.track, 0);
  int next_tid = 1;
  for (auto& [track, tid] : tids) tid = next_tid++;

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& [track, tid] : tids) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", tid);
    w.key("args").begin_object().kv("name", track).end_object();
    w.end_object();
  }
  for (const TrackedEvent& te : events) {
    const Event& e = te.event;
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", e.cat);
    const char* ph = e.phase == Phase::kBegin ? "B" : e.phase == Phase::kEnd ? "E" : "i";
    w.kv("ph", ph);
    if (e.phase == Phase::kInstant) w.kv("s", "t");  // thread-scoped instant
    w.kv("ts", e.ts_us);
    w.kv("pid", 1);
    w.kv("tid", tids.at(*te.track));
    if (e.has_arg) w.key("args").begin_object().kv("v", e.arg).end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.take();
}

bool export_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << export_chrome_trace() << '\n';
  return static_cast<bool>(out);
}

std::string dump_recent(std::size_t max_events) {
  std::vector<TrackedEvent> events = collect_sorted();
  if (events.size() > max_events) {
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  std::string out;
  char line[256];
  for (const TrackedEvent& te : events) {
    const Event& e = te.event;
    const char* ph = e.phase == Phase::kBegin ? "B" : e.phase == Phase::kEnd ? "E" : "i";
    if (e.has_arg) {
      std::snprintf(line, sizeof line, "%12llu us  %-18s %s %s/%s arg=%llu\n",
                    static_cast<unsigned long long>(e.ts_us), te.track->c_str(), ph,
                    e.cat, e.name, static_cast<unsigned long long>(e.arg));
    } else {
      std::snprintf(line, sizeof line, "%12llu us  %-18s %s %s/%s\n",
                    static_cast<unsigned long long>(e.ts_us), te.track->c_str(), ph,
                    e.cat, e.name);
    }
    out += line;
  }
  return out;
}

void install_crash_dump() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_prev_terminate = std::set_terminate(terminate_with_dump);
    std::signal(SIGABRT, abort_with_dump);
  });
}

}  // namespace idgka::obs
