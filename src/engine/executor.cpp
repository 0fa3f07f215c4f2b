#include "engine/executor.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "net/parallel.h"
#include "obs/trace.h"

namespace idgka::engine {

namespace {
// Set by the worker around each switch into a fiber, never from inside
// one: a fiber may resume on another thread, so its code must not keep a
// thread-local address across a yield.
thread_local ProtocolRun* t_current_run = nullptr;

/// Every fiber's stack. The deepest body measured touches 12 KiB in
/// Release (hier_lossy, multigroup) and 24 KiB under ASan (the sim and
/// cluster suites); the guard page below turns an overflow into a fault.
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
const std::size_t kGuardBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}  // namespace

// One mapping, guard page first (stacks grow down), plus the two switch
// contexts and the sanitizers' view of a switch.
struct ProtocolRun::Fiber {
  Fiber() {
    map = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    stack = static_cast<char*>(map) + kGuardBytes;
    if (mprotect(map, kGuardBytes, PROT_NONE) != 0) {
      munmap(map, kGuardBytes + kStackBytes);
      throw std::bad_alloc();
    }
    getcontext(&self);
    self.uc_stack.ss_sp = stack;
    self.uc_stack.ss_size = kStackBytes;
    self.uc_link = nullptr;  // fiber_main never returns
    makecontext(&self, &ProtocolRun::fiber_main, 0);
  }
  ~Fiber() {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);  // frames never returned
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_self);
#endif
    munmap(map, kGuardBytes + kStackBytes);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  void* map = nullptr;
  char* stack = nullptr;
  ucontext_t self{};    ///< the fiber, saved at its last park
  ucontext_t worker{};  ///< the resuming worker, saved at each switch_in
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;           ///< the fiber's, while it is parked
  const void* worker_bottom = nullptr;  ///< the resuming worker's stack
  std::size_t worker_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_self = __tsan_create_fiber(0);
  void* tsan_worker = nullptr;
#endif
};

// ------------------------------------------------------------- ProtocolRun

ProtocolRun::ProtocolRun(Executor& exec, std::uint64_t id, std::string name, Body body)
    : exec_(exec), body_(std::move(body)), fiber_(std::make_unique<Fiber>()) {
  trace_.track = name + "#" + std::to_string(id);
#if IDGKA_OBS
  resumes_counter_ = &obs::Registry::global().counter("engine.resumes", name);
#endif
}

ProtocolRun::~ProtocolRun() = default;

ProtocolRun* ProtocolRun::current() { return t_current_run; }

void ProtocolRun::fiber_main() {
  ProtocolRun& run = *t_current_run;  // read once, before any yield
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &run.fiber_->worker_bottom,
                                  &run.fiber_->worker_size);
#endif
  {
    // Scoped so the span ends while the run executes, and so nothing is
    // left to destroy on this frame, which never returns.
    OBS_SPAN("engine.run", "engine");
    try {
      run.body_(run);
    } catch (const RunAborted&) {
      // Executor teardown unwound the body; nothing to record.
    } catch (...) {
      run.error_ = std::current_exception();
    }
  }
  run.body_ = nullptr;  // release captured state promptly
  run.state_ = State::kFinished;
  run.switch_out();
}

void ProtocolRun::switch_in() {
  Fiber& f = *fiber_;
  t_current_run = this;
  obs::swap_thread_state(trace_);
  state_ = State::kRunning;
#if defined(__SANITIZE_ADDRESS__)
  void* worker_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&worker_fake_stack, f.stack, kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  f.tsan_worker = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_self, 0);
#endif
  swapcontext(&f.worker, &f.self);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(worker_fake_stack, nullptr, nullptr);
#endif
  obs::swap_thread_state(trace_);
  t_current_run = nullptr;
}

void ProtocolRun::switch_out() {
  Fiber& f = *fiber_;
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber passes no save slot, so ASan drops its fake stack.
  __sanitizer_start_switch_fiber(state_ == State::kFinished ? nullptr : &f.fake_stack,
                                 f.worker_bottom, f.worker_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(f.tsan_worker, 0);
#endif
  swapcontext(&f.self, &f.worker);
  // Resumed, possibly by another worker.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(f.fake_stack, &f.worker_bottom, &f.worker_size);
#endif
}

void ProtocolRun::park(sim::SimTime when, bool arrival_sensitive) {
  arrival_sensitive_ = arrival_sensitive;
  ++pending_wakes_;
  outbox_.push_back({when, [this, epoch = ++wake_epoch_,
                            alive = std::weak_ptr<const bool>(exec_.alive_)] {
                       if (alive.expired()) return;  // straggler outliving the executor
                       --pending_wakes_;
                       // A stale epoch: this await already resumed on arrival.
                       if (epoch == wake_epoch_ && state_ == State::kWaiting) {
                         exec_.make_runnable(this);
                       }
                     }});
  // Both instants land while this run executes, so their virtual
  // timestamps are deterministic.
  OBS_INSTANT("engine.park", "engine");
  state_ = State::kWaiting;
  switch_out();
  if (exec_.shutdown_) throw RunAborted{};
  OBS_INSTANT("engine.resume", "engine");
  arrival_sensitive_ = false;
}

sim::SimTime ProtocolRun::now() const { return exec_.now(); }

void ProtocolRun::sleep_until(sim::SimTime when) {
  if (when > now()) park(when, false);
}

void ProtocolRun::await_round(sim::SimTime timeout, bool resume_on_arrival) {
  // Channel already quiet: nothing this run posted is still in flight, so
  // nothing more will ever arrive for this await; an incomplete round then
  // retransmits without burning a timeout.
  if (resume_on_arrival && in_flight_.load(std::memory_order_relaxed) == 0) return;
  park(now() + timeout, resume_on_arrival);
}

// ---------------------------------------------------------------- Executor

Executor::Executor(sim::Scheduler& scheduler) : scheduler_(scheduler) {}

Executor::~Executor() {
  // Unwind every parked body (park() throws RunAborted) while its stack is
  // still mapped; a run that never started has nothing to unwind.
  shutdown_ = true;
  for (const auto& run : runs_) {
    if (run->state_ == ProtocolRun::State::kWaiting) run->switch_in();
  }
}

ProtocolRun& Executor::submit(std::string name, ProtocolRun::Body body) {
  if (shutdown_) throw std::logic_error("engine::Executor: submit after shutdown");
  runs_.emplace_back(new ProtocolRun(*this, next_id_++, std::move(name), std::move(body)));
  make_runnable(runs_.back().get());
  return *runs_.back();
}

void Executor::make_runnable(ProtocolRun* run) {
  if (run->queued_ || run->state_ == ProtocolRun::State::kFinished) return;
  run->queued_ = true;
  runnable_.push_back(run);
}

void Executor::settle_in_flight(ProtocolRun* owner) {
  if (owner->in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1 &&
      owner->arrival_sensitive_ &&
      owner->state_ == ProtocolRun::State::kWaiting) {
    ++owner->wake_epoch_;  // invalidate the pending timeout wake
    make_runnable(owner);
  }
}

void Executor::drain() {
  if (ProtocolRun::current() != nullptr) {
    throw std::logic_error("engine::Executor: drain() called from a run body");
  }
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
      static obs::Gauge& max_batch_gauge = obs::Registry::global().gauge("engine.max_batch");
      max_batch_gauge.max_of(static_cast<std::int64_t>(total));
      // The same resumes broken out by run name (counters cached at submit).
      for (ProtocolRun* run : batch_) run->resumes_counter_->add(1);
#endif
      OBS_INSTANT_ARG("engine.batch", "engine", total);
      // One index per run, claimed dynamically, so runs of unequal cost
      // balance across the workers.
      net::parallel_run(total, [this](std::size_t i) { batch_[i]->switch_in(); });
      // Batch order, not the order the runs happened to post in.
      for (ProtocolRun* run : batch_) {
        for (ProtocolRun::Posted& posted : run->outbox_) {
          scheduler_.at(posted.when, std::move(posted.fn));
        }
        run->outbox_.clear();
      }
      continue;
    }
    const bool all_finished = std::all_of(runs_.begin(), runs_.end(), [](const auto& run) {
      return run->state_ == ProtocolRun::State::kFinished;
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
    if (!first_error) first_error = run->error_;
    run->error_ = nullptr;
  }
  // Reap finished runs no queued event references any more (straggler
  // deposits and stale timer wakes both hold ProtocolRun pointers); the
  // rest keep their objects until those events fire or the executor dies.
  std::erase_if(runs_, [](const std::unique_ptr<ProtocolRun>& run) {
    return run->in_flight_.load(std::memory_order_relaxed) == 0 && run->pending_wakes_ == 0;
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace idgka::engine
