#include "engine/executor.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/parallel.h"
#include "obs/trace.h"

namespace idgka::engine {

namespace {
thread_local ProtocolRun* t_current_run = nullptr;

constexpr std::size_t kMaxShards = 16;

#if IDGKA_OBS
std::uint64_t shard_clock(const void* sched) {
  return static_cast<std::uint64_t>(static_cast<const sim::Scheduler*>(sched)->now());
}
#endif
}  // namespace

// ------------------------------------------------------------- ProtocolRun

ProtocolRun::ProtocolRun(Executor& exec, std::uint64_t id, std::size_t shard_idx,
                         std::string name, Body body)
    : exec_(exec), id_(id), shard_idx_(shard_idx), name_(std::move(name)),
      body_(std::move(body)) {
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
  Executor::Shard& shard = *exec_.shards_[shard_idx_];
  std::unique_lock<std::mutex> lock(shard.mutex);
  cv_.wait(lock, [this] {
    return go_ || exec_.shutdown_.load(std::memory_order_relaxed);
  });
  if (exec_.shutdown_.load(std::memory_order_relaxed)) {
    state_.store(State::kFinished, std::memory_order_relaxed);
    go_ = false;
    shard.host_cv.notify_all();
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
  go_ = false;
  shard.host_cv.notify_all();
}

void ProtocolRun::park(std::unique_lock<std::mutex>& lock) {
  // Emitted before the handoff (and the resume instant after it): both
  // land while this run has the floor, so their virtual timestamps are
  // deterministic.
  OBS_INSTANT("engine.park", "engine");
  Executor::Shard& shard = *exec_.shards_[shard_idx_];
  state_.store(State::kWaiting, std::memory_order_relaxed);
  go_ = false;
  shard.host_cv.notify_all();
  cv_.wait(lock, [this] {
    return go_ || exec_.shutdown_.load(std::memory_order_relaxed);
  });
  if (exec_.shutdown_.load(std::memory_order_relaxed)) throw RunAborted{};
  state_.store(State::kRunning, std::memory_order_relaxed);
  OBS_INSTANT("engine.resume", "engine");
}

sim::SimTime ProtocolRun::now() const { return exec_.shards_[shard_idx_]->sched->now(); }

void ProtocolRun::sleep_until(sim::SimTime when) {
  Executor::Shard& shard = *exec_.shards_[shard_idx_];
  std::unique_lock<std::mutex> lock(shard.mutex);
  if (when <= shard.sched->now()) return;
  arrival_sensitive_ = false;
  exec_.schedule_wake(this, when, ++wake_epoch_);
  park(lock);
}

void ProtocolRun::await_round(sim::SimTime timeout, bool resume_on_arrival) {
  Executor::Shard& shard = *exec_.shards_[shard_idx_];
  std::unique_lock<std::mutex> lock(shard.mutex);
  if (resume_on_arrival && in_flight_.load(std::memory_order_relaxed) == 0) {
    // Channel already quiet: nothing this run posted is still in flight,
    // so nothing more will ever arrive for this await — drain immediately
    // (an incomplete round then retransmits without burning a timeout).
    return;
  }
  arrival_sensitive_ = resume_on_arrival;
  exec_.schedule_wake(this, shard.sched->now() + timeout, ++wake_epoch_);
  park(lock);
  arrival_sensitive_ = false;
}

// ---------------------------------------------------------------- Executor

Executor::Executor(sim::Scheduler& scheduler, std::size_t shards) : scheduler_(scheduler) {
  std::size_t count = shards != 0 ? shards : net::worker_count();
  count = std::max<std::size_t>(1, std::min(count, kMaxShards));
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    auto shard = std::make_unique<Shard>();
    if (s == 0) {
      shard->sched = &scheduler_;
    } else {
      shard->owned = std::make_unique<sim::Scheduler>();
      shard->sched = shard->owned.get();
    }
    shards_.push_back(std::move(shard));
  }
}

Executor::~Executor() {
  shutdown_.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& run : runs_) {
      // Acquire/release the run's shard mutex so a thread entering a cv
      // wait either sees shutdown_ in the predicate or gets the notify.
      const std::lock_guard<std::mutex> shard_lock(shards_[run->shard_idx_]->mutex);
      run->cv_.notify_all();
    }
  }
  for (const auto& run : runs_) {
    if (run->thread_.joinable()) run->thread_.join();
  }
  if (!shard_threads_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(pool_mutex_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : shard_threads_) t.join();
  }
}

ProtocolRun& Executor::submit(std::string name, ProtocolRun::Body body) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_.load(std::memory_order_relaxed)) {
    throw std::logic_error("engine::Executor: submit after shutdown");
  }
  const std::uint64_t id = next_id_++;
  const std::size_t shard_idx = static_cast<std::size_t>(id % shards_.size());
  runs_.emplace_back(new ProtocolRun(*this, id, shard_idx, std::move(name), std::move(body)));
  ++submitted_;
  ProtocolRun* run = runs_.back().get();
  {
    const std::lock_guard<std::mutex> shard_lock(shards_[shard_idx]->mutex);
    make_runnable(run);
  }
  return *run;
}

void Executor::make_runnable(ProtocolRun* run) {
  const ProtocolRun::State state = run->state_.load(std::memory_order_relaxed);
  if (run->queued_ || state == ProtocolRun::State::kFinished ||
      state == ProtocolRun::State::kRunning) {
    return;
  }
  run->queued_ = true;
  shards_[run->shard_idx_]->runnable.push_back(run);
}

void Executor::schedule_wake(ProtocolRun* run, sim::SimTime when, std::uint64_t epoch) {
  run->pending_wakes_.fetch_add(1, std::memory_order_relaxed);
  shards_[run->shard_idx_]->sched->at(
      when, [this, run, epoch, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) return;  // straggler outliving the executor
        run->pending_wakes_.fetch_sub(1, std::memory_order_relaxed);
        wake_from_timer(run, epoch);
      });
}

void Executor::wake_from_timer(ProtocolRun* run, std::uint64_t epoch) {
  // Runs inside drain()'s event execution, shard mutex held. A stale epoch
  // means the await this timer belonged to was already resumed (arrival).
  if (epoch != run->wake_epoch_ ||
      run->state_.load(std::memory_order_relaxed) != ProtocolRun::State::kWaiting) {
    return;
  }
  make_runnable(run);
}

void Executor::step(ProtocolRun* run) {
#if IDGKA_OBS
  // Same semantics as the aggregate engine.resumes bump in drain(), broken
  // out by run name; the counter was cached at submit (relaxed add only).
  run->resumes_counter_->add(1);
#endif
  Shard& shard = *shards_[run->shard_idx_];
  std::unique_lock<std::mutex> lock(shard.mutex);
  run->go_ = true;
  run->cv_.notify_one();
  shard.host_cv.wait(lock, [run] { return !run->go_; });
}

void Executor::ensure_workers() {
  if (!shard_threads_.empty() || shards_.size() == 1) return;
  shard_threads_.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shard_threads_.emplace_back([this, s] { shard_worker(s); });
  }
}

void Executor::shard_worker(std::size_t shard_idx) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(pool_mutex_);
  for (;;) {
    pool_cv_.wait(lock, [&] { return pool_stop_ || phase_gen_ != seen; });
    if (pool_stop_) return;
    seen = phase_gen_;
    const std::function<void(std::size_t)>* phase = phase_;
    lock.unlock();
    try {
      (*phase)(shard_idx);
    } catch (...) {
      lock.lock();
      if (!phase_error_) phase_error_ = std::current_exception();
      lock.unlock();
    }
    lock.lock();
    if (--phase_remaining_ == 0) pool_done_cv_.notify_all();
  }
}

void Executor::run_phase(const std::function<void(std::size_t)>& phase) {
  if (shards_.size() == 1) {
    phase(0);
    return;
  }
  ensure_workers();
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    phase_ = &phase;
    phase_remaining_ = shards_.size() - 1;
    ++phase_gen_;
  }
  pool_cv_.notify_all();
  std::exception_ptr host_error;
  try {
    phase(0);
  } catch (...) {
    host_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(pool_mutex_);
  pool_done_cv_.wait(lock, [this] { return phase_remaining_ == 0; });
  std::exception_ptr error = host_error ? host_error : phase_error_;
  phase_error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void Executor::drain_inboxes() {
  for (auto& shard : shards_) {
    std::vector<Shard::InboxEntry> pending;
    {
      const std::lock_guard<std::mutex> lock(shard->inbox_mutex);
      pending.swap(shard->inbox);
    }
    if (pending.empty()) continue;
    // Arrival order across posting shards is scheduling noise; (when,
    // owner, arrival) puts the fold-in order — and therefore the FIFO
    // tie-break downstream — back under the workload's control.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Shard::InboxEntry& a, const Shard::InboxEntry& b) {
                       return a.when != b.when ? a.when < b.when : a.owner_id < b.owner_id;
                     });
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& entry : pending) shard->sched->at(entry.when, std::move(entry.fn));
  }
}

void Executor::drain() {
  if (ProtocolRun::current() != nullptr) {
    throw std::logic_error("engine::Executor: drain() called from a run body");
  }
  // Between drains the host may advance the external scheduler (shard 0)
  // directly; bring every shard clock to that frontier so the first resumed
  // run reads the same virtual time from any shard.
  sim::SimTime frontier = 0;
  for (const auto& shard : shards_) frontier = std::max(frontier, shard->sched->now());
  for (const auto& shard : shards_) shard->sched->advance_to(frontier);

  for (;;) {
    drain_inboxes();
    // Collect the global same-instant batch: each shard's runnable slice.
    std::size_t total = 0;
    for (auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->batch.clear();
      shard->batch.swap(shard->runnable);
      for (ProtocolRun* run : shard->batch) run->queued_ = false;
      total += shard->batch.size();
    }
    if (total > 0) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        max_batch_ = std::max(max_batch_, total);
      }
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
      // Each shard resumes its slice sequentially in queue order; shards
      // run on their own worker threads. With one shard this degenerates
      // to strictly sequential resumption — bit-identical results either
      // way.
      run_phase([this](std::size_t s) {
        Shard& shard = *shards_[s];
        for (ProtocolRun* run : shard.batch) step(run);
        shard.resumes += shard.batch.size();
      });
      continue;
    }
    bool all_finished;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      all_finished = std::all_of(runs_.begin(), runs_.end(), [](const auto& run) {
        return run->state_.load(std::memory_order_relaxed) == ProtocolRun::State::kFinished;
      });
    }
    if (all_finished) break;
    // Globally earliest pending timestamp across all shards.
    std::optional<sim::SimTime> next;
    for (auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      if (const auto t = shard->sched->next_event_time()) {
        next = next.has_value() ? std::min(*next, *t) : *t;
      }
    }
    if (next.has_value()) {
      // Execute every shard's events at the barrier timestamp (frame
      // deposits, timer wakes — including same-timestamp cascades), then
      // advance every shard clock to it (run_until's trailing advance).
      // Wake events mark runs runnable; the next iteration resumes them
      // as one global batch.
      const sim::SimTime barrier = *next;
      run_phase([this, barrier](std::size_t s) {
        Shard& shard = *shards_[s];
#if IDGKA_OBS
        // Trace events stamp the executing shard's clock: shard 0's, which
        // an installed sim clock reads, may still show the last barrier.
        const obs::ScopedThreadClock obs_clock(&shard_clock, shard.sched);
#endif
        const std::lock_guard<std::mutex> lock(shard.mutex);
        shard.sched->run_until(barrier);
      });
      continue;
    }
    throw std::logic_error(
        "engine::Executor: all runs waiting but no pending events (lost wakeup?)");
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // Keep the first body error for rethrow and clear ALL of them — a stale
  // error must never be re-attributed to a later, unrelated drain.
  std::exception_ptr first_error;
  for (const auto& run : runs_) {
    if (run->error_) {
      if (!first_error) first_error = run->error_;
      run->error_ = nullptr;
    }
  }
  // Reap finished runs no queued event references any more (straggler
  // deposits and stale timer wakes both hold ProtocolRun pointers); the
  // rest keep their objects until those events fire or the executor dies.
  std::vector<std::unique_ptr<ProtocolRun>> reaped;
  const auto referenced = [](const std::unique_ptr<ProtocolRun>& run) {
    return run->in_flight_.load(std::memory_order_relaxed) > 0 ||
           run->pending_wakes_.load(std::memory_order_relaxed) > 0;
  };
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (!referenced(*it)) {
      reaped.push_back(std::move(*it));
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  lock.unlock();
  // Join thread handles outside the mutex (a finishing thread briefly
  // re-acquires its shard mutex on its way out).
  for (const auto& run : runs_) {
    if (run->thread_.joinable()) run->thread_.join();
  }
  for (const auto& run : reaped) {
    if (run->thread_.joinable()) run->thread_.join();
  }
  reaped.clear();
  if (first_error) std::rethrow_exception(first_error);
}

void Executor::settle_in_flight(ProtocolRun* owner) {
  // Owner's shard mutex held (its scheduler events execute under it).
  if (owner->in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1 &&
      owner->arrival_sensitive_ &&
      owner->state_.load(std::memory_order_relaxed) == ProtocolRun::State::kWaiting) {
    ++owner->wake_epoch_;  // invalidate the pending timeout wake
    make_runnable(owner);
  }
}

std::uint64_t Executor::resumes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->resumes;
  }
  return total;
}

std::size_t Executor::max_batch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_batch_;
}

std::size_t Executor::run_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

std::uint64_t Executor::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->sched->executed();
  }
  return total;
}

}  // namespace idgka::engine
