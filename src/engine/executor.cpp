#include "engine/executor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/parallel.h"
#include "obs/trace.h"

namespace idgka::engine {

namespace {
thread_local ProtocolRun* t_current_run = nullptr;
}  // namespace

// ------------------------------------------------------------- ProtocolRun

ProtocolRun::ProtocolRun(Executor& exec, std::uint64_t id, std::string name, Body body)
    : exec_(exec), id_(id), name_(std::move(name)), body_(std::move(body)) {
#if IDGKA_OBS
  resumes_counter_ = &obs::Registry::global().counter("engine.resumes", name_);
#endif
  thread_ = std::thread([this] { thread_main(); });
}

ProtocolRun::~ProtocolRun() {
  if (thread_.joinable()) thread_.join();
}

ProtocolRun* ProtocolRun::current() { return t_current_run; }

void ProtocolRun::thread_main() {
  std::unique_lock<std::mutex> lock(exec_.mutex_);
  cv_.wait(lock, [this] {
    return go_ || exec_.shutdown_;
  });
  if (!go_) {  // shutdown before the first resume
    state_.store(State::kFinished, std::memory_order_relaxed);
    return;
  }
  state_.store(State::kRunning, std::memory_order_relaxed);
  lock.unlock();

  t_current_run = this;
#if IDGKA_OBS
  // Deterministic export track: run ids are assigned in submission order,
  // so the track name — unlike the OS thread id or the ring registration
  // order — is a pure function of the workload.
  if (obs::trace_enabled()) {
    obs::set_thread_track(name_ + "#" + std::to_string(id_));
  }
#endif
  {
    // Scoped so the span's end event is emitted while this run still has
    // the floor (before the host thread can resume and advance the clock).
    OBS_SPAN("engine.run", "engine");
    try {
      body_(*this);
    } catch (const RunAborted&) {
      // Executor teardown unwound the body; nothing to record.
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  t_current_run = nullptr;
  body_ = nullptr;  // release captured state promptly

  lock.lock();
  state_.store(State::kFinished, std::memory_order_relaxed);
  if (go_) {  // not unwound by teardown: hand the floor back
    go_ = false;
    if (--exec_.unfinished_ == 0) exec_.host_cv_.notify_one();
  }
}

void ProtocolRun::park() {
  // Emitted before the handoff (and the resume instant after it): both
  // land while this run has the floor, so their virtual timestamps are
  // deterministic.
  OBS_INSTANT("engine.park", "engine");
  {
    std::unique_lock<std::mutex> lock(exec_.mutex_);
    state_.store(State::kWaiting, std::memory_order_relaxed);
    go_ = false;
    if (--exec_.unfinished_ == 0) exec_.host_cv_.notify_one();
    cv_.wait(lock, [this] {
      return go_ || exec_.shutdown_;
    });
    if (!go_) throw RunAborted{};
    state_.store(State::kRunning, std::memory_order_relaxed);
  }
  OBS_INSTANT("engine.resume", "engine");
}

sim::SimTime ProtocolRun::now() const { return exec_.now(); }

void ProtocolRun::sleep_until(sim::SimTime when) {
  if (when <= now()) return;
  arrival_sensitive_ = false;
  exec_.schedule_wake(this, when, ++wake_epoch_);
  park();
}

void ProtocolRun::await_round(sim::SimTime timeout, bool resume_on_arrival) {
  if (resume_on_arrival && in_flight_.load(std::memory_order_relaxed) == 0) {
    // Channel already quiet: nothing this run posted is still in flight,
    // so nothing more will ever arrive for this await — drain immediately
    // (an incomplete round then retransmits without burning a timeout).
    return;
  }
  arrival_sensitive_ = resume_on_arrival;
  exec_.schedule_wake(this, now() + timeout, ++wake_epoch_);
  park();
  arrival_sensitive_ = false;
}

// ---------------------------------------------------------------- Executor

Executor::Executor(sim::Scheduler& scheduler) : scheduler_(scheduler) {}

Executor::~Executor() {
  {
    // Set under the mutex so a run thread entering its cv wait either sees
    // shutdown_ in the predicate or gets the notify.
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    for (const auto& run : runs_) run->cv_.notify_all();
  }
  for (const auto& run : runs_) {
    if (run->thread_.joinable()) run->thread_.join();
  }
}

ProtocolRun& Executor::submit(std::string name, ProtocolRun::Body body) {
  if (shutdown_) throw std::logic_error("engine::Executor: submit after shutdown");
  runs_.emplace_back(new ProtocolRun(*this, next_id_++, std::move(name), std::move(body)));
  ProtocolRun* run = runs_.back().get();
  make_runnable(run);
  return *run;
}

void Executor::make_runnable(ProtocolRun* run) {
  const ProtocolRun::State state = run->state_.load(std::memory_order_relaxed);
  if (run->queued_ || state == ProtocolRun::State::kFinished ||
      state == ProtocolRun::State::kRunning) {
    return;
  }
  run->queued_ = true;
  runnable_.push_back(run);
}

void Executor::schedule_wake(ProtocolRun* run, sim::SimTime when, std::uint64_t epoch) {
  run->pending_wakes_.fetch_add(1, std::memory_order_relaxed);
  run->outbox_.push_back(
      {when, [this, run, epoch, alive = std::weak_ptr<const bool>(alive_)] {
         if (alive.expired()) return;  // straggler outliving the executor
         run->pending_wakes_.fetch_sub(1, std::memory_order_relaxed);
         wake_from_timer(run, epoch);
       }});
}

void Executor::wake_from_timer(ProtocolRun* run, std::uint64_t epoch) {
  // A stale epoch means the await this timer belonged to was already
  // resumed (arrival).
  if (epoch != run->wake_epoch_ ||
      run->state_.load(std::memory_order_relaxed) != ProtocolRun::State::kWaiting) {
    return;
  }
  make_runnable(run);
}

void Executor::settle_in_flight(ProtocolRun* owner) {
  if (owner->in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1 &&
      owner->arrival_sensitive_ &&
      owner->state_.load(std::memory_order_relaxed) == ProtocolRun::State::kWaiting) {
    ++owner->wake_epoch_;  // invalidate the pending timeout wake
    make_runnable(owner);
  }
}

void Executor::resume(std::span<ProtocolRun* const> runs) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    unfinished_ = runs.size();
    for (ProtocolRun* run : runs) {
#if IDGKA_OBS
      // Same semantics as the aggregate engine.resumes bump in drain(),
      // broken out by run name; the counter was cached at submit.
      run->resumes_counter_->add(1);
#endif
      run->go_ = true;
      run->cv_.notify_one();
    }
    host_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }
  // Batch order, not the order the runs happened to post in: the queue
  // sees the insertion sequence of a one-by-one resumption.
  for (ProtocolRun* run : runs) {
    for (ProtocolRun::Posted& posted : run->outbox_) {
      scheduler_.at(posted.when, std::move(posted.fn));
    }
    run->outbox_.clear();
  }
}

void Executor::drain() {
  if (ProtocolRun::current() != nullptr) {
    throw std::logic_error("engine::Executor: drain() called from a run body");
  }
  const bool one_by_one = net::worker_count() == 1;
  for (;;) {
    batch_.swap(runnable_);
    runnable_.clear();
    if (!batch_.empty()) {
      for (ProtocolRun* run : batch_) run->queued_ = false;
      const std::size_t total = batch_.size();
      resumes_ += total;
      max_batch_ = std::max(max_batch_, total);
      // Mirror the engine bookkeeping into the process-wide registry (same
      // semantics as resumes()/max_batch(), summed over all executors).
      OBS_COUNT("engine.resumes", total);
      OBS_COUNT("engine.batches", 1);
#if IDGKA_OBS
      {
        static obs::Gauge& max_batch_gauge =
            obs::Registry::global().gauge("engine.max_batch");
        max_batch_gauge.max_of(static_cast<std::int64_t>(total));
      }
#endif
      OBS_INSTANT_ARG("engine.batch", "engine", total);
      if (one_by_one) {
        for (std::size_t i = 0; i < total; ++i) resume({&batch_[i], 1});
      } else {
        resume(batch_);
      }
      continue;
    }
    const bool all_finished = std::all_of(runs_.begin(), runs_.end(), [](const auto& run) {
      return run->state_.load(std::memory_order_relaxed) == ProtocolRun::State::kFinished;
    });
    if (all_finished) break;
    if (const auto next = scheduler_.next_event_time()) {
      // Execute every event at the earliest pending timestamp (frame
      // deposits, timer wakes — including same-timestamp cascades). Wake
      // events mark runs runnable; the next iteration resumes them as one
      // batch.
      scheduler_.run_until(*next);
      continue;
    }
    throw std::logic_error(
        "engine::Executor: all runs waiting but no pending events (lost wakeup?)");
  }

  // Keep the first body error for rethrow and clear ALL of them — a stale
  // error must never be re-attributed to a later, unrelated drain.
  std::exception_ptr first_error;
  for (const auto& run : runs_) {
    if (run->error_) {
      if (!first_error) first_error = run->error_;
      run->error_ = nullptr;
    }
    // Every run has finished: its thread is exiting or gone.
    if (run->thread_.joinable()) run->thread_.join();
  }
  // Reap finished runs no queued event references any more (straggler
  // deposits and stale timer wakes both hold ProtocolRun pointers); the
  // rest keep their objects until those events fire or the executor dies.
  std::erase_if(runs_, [](const std::unique_ptr<ProtocolRun>& run) {
    return run->in_flight_.load(std::memory_order_relaxed) == 0 &&
           run->pending_wakes_.load(std::memory_order_relaxed) == 0;
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace idgka::engine
