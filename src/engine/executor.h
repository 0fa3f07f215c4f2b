// Event-driven protocol engine: many concurrent ProtocolRuns, one virtual
// clock, one event queue.
//
// The Executor multiplexes any number of ProtocolRun fibers over one
// discrete-event sim::Scheduler whose events run on the host thread (the
// one that calls drain()). Run wake-ups are ordinary scheduler events,
// fired in (timestamp, insertion) order, so a whole multi-group simulation
// is a pure function of its seeds.
//
// drain() alternates two virtual-time barriers until every run finished:
// resume every runnable run as one batch, then execute the events at the
// earliest pending timestamp, which mark runs runnable again. A batch
// enters its fibers through net::parallel_run, one index per run, so the
// pool's workers claim runs dynamically and a parked fiber hands its
// worker back; a batch of one, and every batch under IDGKA_THREADS=1, runs
// inline on the host in batch order. The process thus runs one threading
// mechanism, the net pool, plus the host thread.
//
// Events a run posts go into its outbox, which the host moves into the
// queue after the batch, in batch order: the queue sees one insertion
// sequence whichever worker ran which run, so every engine metric is
// bit-identical for every IDGKA_THREADS value. Runs of a batch may execute
// at once because a body touches only its own group's state, its own
// outbox and the in-flight counter of the run it posts for.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/protocol_run.h"
#include "sim/scheduler.h"

namespace idgka::engine {

class Executor {
 public:
  /// The scheduler must outlive the executor. While any run is live, every
  /// access to it must go through this executor (post / now / drain);
  /// between drains the host thread may use it directly.
  explicit Executor(sim::Scheduler& scheduler);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a run; its body starts executing at the next drain(). Call
  /// from the host thread only. The returned reference is valid only until
  /// the drain() that finishes the run returns (finished runs are reaped
  /// once no queued event references them) — don't hold it across drains.
  ProtocolRun& submit(std::string name, ProtocolRun::Body body);

  /// Drives every submitted run to completion, interleaving their awaits
  /// by virtual-time events. Call from the host thread only (never from a
  /// run body). Rethrows the first run-body exception after all runs
  /// settle. Pending scheduler events beyond the last run's completion
  /// (straggler frames) stay queued, exactly like the blocking layer left
  /// them.
  void drain();

  /// Schedules `fn` at now + delay. Call only from the host thread or from
  /// a run body, never from member-level chunks a body handed to the net::
  /// pool. From a run the event goes into that run's outbox and reaches
  /// the queue after the batch, in batch order; from the host it is
  /// inserted directly. `owner` (may be null, may be another run than the
  /// caller) attributes the event to a run for frame-arrival resumption:
  /// it counts as one in-flight copy of that run until executed. Templated
  /// so the deposit closure and the in-flight accounting fold into one
  /// scheduler event (this sits on the per-copy hot path).
  ///
  /// Straggler events may stay queued in the scheduler past the
  /// executor's death (the scheduler outlives it by contract); the
  /// liveness token makes the engine-accounting half a no-op then — `fn`
  /// still runs and must guard its own captures (the sim transport's
  /// weak network token does).
  template <typename Fn>
  void post(sim::SimTime delay, Fn&& fn, ProtocolRun* owner) {
    if (owner != nullptr) owner->in_flight_.fetch_add(1, std::memory_order_relaxed);
    auto event = [this, fn = std::forward<Fn>(fn), owner,
                  alive = std::weak_ptr<const bool>(alive_)] {
      fn();
      if (owner != nullptr && !alive.expired()) settle_in_flight(owner);
    };
    if (ProtocolRun* cur = ProtocolRun::current()) {
      cur->outbox_.push_back({scheduler_.now() + delay, std::move(event)});
    } else {
      scheduler_.after(delay, std::move(event));
    }
  }

  /// Clock read; safe from any thread.
  [[nodiscard]] sim::SimTime now() const { return scheduler_.now(); }

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }

  // --- Engine bookkeeping (for tests, benches and metrics; host thread) ---
  /// Total run resumptions performed.
  [[nodiscard]] std::uint64_t resumes() const { return resumes_; }
  /// Widest same-instant batch of runs resumed together — > 1 proves that
  /// independent protocol runs genuinely interleaved on this clock.
  [[nodiscard]] std::size_t max_batch() const { return max_batch_; }
  /// Total runs ever submitted (finished runs are reaped once no queued
  /// event references them, so this is a counter, not a live-list size).
  [[nodiscard]] std::size_t run_count() const { return next_id_; }
  /// Scheduler events executed.
  [[nodiscard]] std::uint64_t events_executed() const { return scheduler_.executed(); }

 private:
  friend class ProtocolRun;

  /// Marks a run runnable (host thread). No-op when already queued/done.
  void make_runnable(ProtocolRun* run);
  /// In-flight copy accounting (host thread, inside drain's event
  /// execution); may resume an arrival-sensitive await.
  void settle_in_flight(ProtocolRun* owner);

  sim::Scheduler& scheduler_;

  // --- Host thread only ---
  /// Set by the destructor; a run resumed after it throws RunAborted.
  bool shutdown_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t resumes_ = 0;
  std::size_t max_batch_ = 0;
  std::vector<ProtocolRun*> runnable_;
  std::vector<ProtocolRun*> batch_;
  /// Expires with the executor; queued straggler events consult it before
  /// touching engine accounting state.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  /// Live runs. A finished run is reaped at the end of drain() once no
  /// queued event still references it (in-flight deposits and pending
  /// timer wakes both count), so long op-by-op scenarios stay O(live).
  std::vector<std::unique_ptr<ProtocolRun>> runs_;
};

}  // namespace idgka::engine
