// Deterministic discrete-event scheduler.
//
// A virtual clock in microseconds plus an ordered event queue. Events with
// equal timestamps run in insertion order (a strictly increasing sequence
// number breaks ties), so a whole simulation is a pure function of its
// seeds — the determinism the scenario metrics tests rely on.
//
// Protocol execution is hosted on engine::ProtocolRun fibers whose wake
// timers are ordinary events in this queue; the engine relies on the FIFO
// tie-break for determinism (pinned by the Scheduler regression tests).
// Event callbacks must never re-enter the protocol layer — in this
// codebase they only ever deposit in-flight message copies and mark runs
// runnable.
//
// Threading: only the host thread (the one driving the engine) mutates the
// queue; run bodies hand their posts to the engine, which inserts them
// between batches. The clock stays atomic because run bodies and trace
// clocks read now() on the net pool's workers as well as on the host.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>

namespace idgka::sim {

/// Virtual time in microseconds since simulation start.
using SimTime = std::uint64_t;

inline constexpr SimTime kUsPerMs = 1'000;
inline constexpr SimTime kUsPerSec = 1'000'000;

class Scheduler {
 public:
  [[nodiscard]] SimTime now() const { return now_.load(std::memory_order_relaxed); }

  /// Schedules `fn` at absolute time `when` (clamped to now for past times).
  void at(SimTime when, std::function<void()> fn);
  /// Schedules `fn` at now() + delay.
  void after(SimTime delay, std::function<void()> fn) { at(now() + delay, std::move(fn)); }

  /// Runs every event with timestamp <= horizon in (time, insertion) order
  /// — including events those events schedule inside the window — then
  /// advances the clock to `horizon` (never backwards).
  void run_until(SimTime horizon);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  /// Timestamp of the earliest pending event, or nullopt when idle. The
  /// engine's main loop advances the clock one occupied timestamp at a
  /// time with run_until(*next_event_time()).
  [[nodiscard]] std::optional<SimTime> next_event_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.begin()->first.first;
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  /// Advances the clock only (never backwards, executes nothing).
  void advance_to(SimTime when) {
    if (when > now()) now_.store(when, std::memory_order_relaxed);
  }

  std::atomic<SimTime> now_{0};
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  /// (time, seq) -> callback; unique keys make this a stable priority queue.
  std::map<std::pair<SimTime, std::uint64_t>, std::function<void()>> queue_;
};

}  // namespace idgka::sim
