// One resumable protocol execution.
//
// A ProtocolRun hosts a blocking protocol body (a membership operation, or
// a whole per-group scenario script) on its own cooperative thread. The
// body runs unmodified protocol code; whenever that code needs the medium
// to deliver (a reliable round's await, a scenario sleeping until its next
// trace event) the run *yields*: it parks its thread and hands control
// back to the engine::Executor, which resumes it later on a virtual-time
// timer event — or earlier, when the last in-flight frame copy the run
// posted lands (frame-arrival resumption, opt-in per await).
//
// Exactly one of {the executor's resume machinery, the run body} executes
// at any time per run. The floor handoff is guarded by the executor's
// mutex; runs of one same-instant batch execute concurrently, which is
// safe because a run only ever touches its own sessions/networks, its own
// outbox and the in-flight counter of the run it posts for.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
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
  /// kReady: queued for (re)start; kRunning: body executing on the run
  /// thread; kWaiting: parked until a timer/arrival event; kFinished: body
  /// returned or threw.
  enum class State { kReady, kRunning, kWaiting, kFinished };
  using Body = std::function<void(ProtocolRun&)>;

  ~ProtocolRun();
  ProtocolRun(const ProtocolRun&) = delete;
  ProtocolRun& operator=(const ProtocolRun&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Executor& executor() { return exec_; }

  // --- Callable only from the run body (on the run thread) ---

  /// Current virtual time (lock-free read of the executor's clock, which
  /// stands still while any run body executes).
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

  /// The run executing on the calling thread; nullptr on the host thread.
  /// Lets layers below the engine (the sim driver's network hooks) route a
  /// blocking wait through the owning run without threading a handle down
  /// the protocol call stack.
  [[nodiscard]] static ProtocolRun* current();

 private:
  friend class Executor;
  ProtocolRun(Executor& exec, std::uint64_t id, std::string name, Body body);

  void thread_main();
  /// Hands the floor back and parks the run thread until the executor
  /// resumes it; throws RunAborted on shutdown.
  void park();

  Executor& exec_;
  const std::uint64_t id_;
  const std::string name_;
  Body body_;
  std::thread thread_;

  // --- Handoff, guarded by the executor's mutex
  std::atomic<State> state_{State::kReady};
  bool go_ = false;  ///< run thread may execute (handoff flag)
  std::condition_variable cv_;  ///< run thread waits here for go_
  // --- Touched only by whoever has the floor (the run while it executes,
  // --- the host between batches); the handoff orders the two
  bool queued_ = false;  ///< already in the executor's runnable queue
  /// Events posted while the run had the floor, in posting order; the host
  /// moves them into the scheduler after the batch (see Executor::post).
  struct Posted {
    sim::SimTime when;
    std::function<void()> fn;
  };
  std::vector<Posted> outbox_;
  /// Invalidates stale timer wakes: a timer event only resumes the run if
  /// it still carries the epoch the await registered.
  std::uint64_t wake_epoch_ = 0;
  /// Frame copies posted by this run still in flight (posted, not yet
  /// executed by the scheduler). Atomic because another run may post on
  /// this run's behalf from its own thread.
  std::atomic<std::uint64_t> in_flight_{0};
  /// Timer wake events still queued in the scheduler (stale ones
  /// included); the run cannot be reaped while any remain.
  std::atomic<std::uint64_t> pending_wakes_{0};
  /// The current await resumes early when in_flight_ drains to zero.
  bool arrival_sensitive_ = false;
  std::exception_ptr error_;
#if IDGKA_OBS
  /// Per-run resume dimension (`engine.resumes{<run-name>}`), resolved
  /// once at submit so the resume hot path stays a relaxed atomic add.
  obs::Counter* resumes_counter_ = nullptr;
#endif
};

}  // namespace idgka::engine
