// One resumable protocol execution.
//
// A ProtocolRun hosts a blocking protocol body (a membership operation, or
// a whole per-group scenario script) on its own stackful fiber: a ucontext
// on an mmap'd stack of one fixed size with a PROT_NONE guard page, mapped
// at submit and unmapped when the run is reaped. Whenever the body needs
// the medium to deliver (a reliable round's await, a scenario sleeping
// until its next trace event) the run *yields*: it parks, switching back
// to the worker that resumed it, and the engine::Executor resumes it on a
// virtual-time timer event — or earlier, when the last in-flight frame
// copy the run posted lands (frame-arrival resumption, opt-in per await).
//
// A run may resume on another thread than the one it parked on, so no
// thread-local reference may live across a yield, and no yield may happen
// inside a catch handler (the C++ runtime keeps caught exceptions per
// thread). What a body reads per thread travels with the run: the worker
// sets current() and swaps the run's obs trace state in before switching
// to the fiber, and undoes both after it switches back.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/scheduler.h"

namespace idgka::engine {

class Executor;

/// Thrown inside a yielded run when its executor is torn down before the
/// body finished; unwinds the body. Deliberately not derived from
/// std::exception so protocol-level catch blocks never swallow it.
struct RunAborted {};

class ProtocolRun {
 public:
  using Body = std::function<void(ProtocolRun&)>;

  ~ProtocolRun();
  ProtocolRun(const ProtocolRun&) = delete;
  ProtocolRun& operator=(const ProtocolRun&) = delete;

  // --- Callable only from the run body ---

  /// Current virtual time (the executor's clock, which stands still while
  /// any run body executes).
  [[nodiscard]] sim::SimTime now() const;

  /// Yields until virtual time `when`; no-op when `when` is not in the
  /// future. Resumed by a timer event.
  void sleep_until(sim::SimTime when);

  /// Yields one reliable-round await: resumed by a timer event at
  /// now + timeout — or earlier, when `resume_on_arrival` and every frame
  /// copy this run has posted through Executor::post() has landed (the
  /// channel is quiet, so draining now sees everything that will ever
  /// arrive and an incomplete round can retransmit immediately).
  void await_round(sim::SimTime timeout, bool resume_on_arrival);

  /// The run whose body is executing on the calling thread; nullptr
  /// elsewhere (the host between batches, a pool thread running member
  /// chunks). Lets layers below the engine (the sim driver's network
  /// hooks) route a blocking wait through the owning run without threading
  /// a handle down the protocol call stack.
  [[nodiscard]] static ProtocolRun* current();

 private:
  friend class Executor;
  struct Fiber;
  /// kReady: submitted, not yet started; kRunning: body executing;
  /// kWaiting: parked until a timer/arrival event; kFinished: body
  /// returned or threw.
  enum class State { kReady, kRunning, kWaiting, kFinished };

  ProtocolRun(Executor& exec, std::uint64_t id, std::string name, Body body);

  /// The fiber's entry point: runs the body, then switches out for good.
  static void fiber_main();
  /// Worker side: enters the fiber; returns when it parks or finishes.
  void switch_in();
  /// Fiber side: switches back to the worker that resumed the fiber.
  void switch_out();
  /// Queues a timer wake at `when` (stale once the epoch moves on), parks
  /// until resumed, and throws RunAborted on executor teardown.
  void park(sim::SimTime when, bool arrival_sensitive);

  Executor& exec_;
  Body body_;
  std::unique_ptr<Fiber> fiber_;
  /// The run's trace ring under its "<name>#<id>" track (ids follow
  /// submission order, so the track is a pure function of the workload),
  /// swapped onto the hosting worker while the body executes.
  obs::TraceState trace_;

  // --- Touched only by whoever executes the run (its fiber, or the host
  // --- between batches); the batch's fork-join orders the two
  State state_ = State::kReady;
  bool queued_ = false;  ///< already in the executor's runnable queue
  /// Events posted while the run executed, in posting order; the host
  /// moves them into the scheduler after the batch (see Executor::post).
  struct Posted {
    sim::SimTime when;
    std::function<void()> fn;
  };
  std::vector<Posted> outbox_;
  /// A timer event only resumes the run if it still carries the epoch its
  /// await registered.
  std::uint64_t wake_epoch_ = 0;
  /// Timer wake events still queued in the scheduler (stale ones
  /// included); the run cannot be reaped while any remain.
  std::uint64_t pending_wakes_ = 0;
  /// The current await resumes early when in_flight_ drains to zero.
  bool arrival_sensitive_ = false;
  std::exception_ptr error_;
  /// Frame copies posted for this run still in flight (posted, not yet
  /// executed). Atomic: another run of the batch may post on its behalf.
  std::atomic<std::uint64_t> in_flight_{0};
#if IDGKA_OBS
  /// Per-run resume dimension (`engine.resumes{<run-name>}`), resolved
  /// once at submit so the resume hot path stays a relaxed atomic add.
  obs::Counter* resumes_counter_ = nullptr;
#endif
};

}  // namespace idgka::engine
