#include "net/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace idgka::net {

std::size_t worker_count() {
  static const std::size_t count = [] {
    if (const char* env = std::getenv("IDGKA_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : (hw > 16 ? 16 : hw));
  }();
  return count;
}

namespace {

// One parallel_run call. Chunk indices are handed out through `next`; a
// participant that draws an index >= count has nothing left to claim. The
// job is shared-owned so a pool thread may still draw from `next` after the
// caller returned; `task` is only invoked for a claimed index, and the
// caller waits for every claimed index, so it never outlives its target.
struct Job {
  Job(const std::function<void(std::size_t)>& t, std::size_t n) : task(&t), count(n) {}

  const std::function<void(std::size_t)>* task;
  const std::size_t count;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t finished = 0;      // guarded by mutex
  std::exception_ptr error;      // guarded by mutex; the first one wins

  // Runs chunks until none is left unclaimed.
  void work() {
    for (std::size_t w = next.fetch_add(1); w < count; w = next.fetch_add(1)) {
      std::exception_ptr err;
      try {
        (*task)(w);
      } catch (...) {
        err = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (err && !error) error = std::move(err);
      if (++finished == count) all_done.notify_all();
    }
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [this] { return finished == count; });
  }
};

// worker_count() - 1 threads serving the published jobs, oldest first.
class Pool {
 public:
  explicit Pool(std::size_t threads) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) threads_.emplace_back([this] { serve(); });
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void run(const std::shared_ptr<Job>& job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(job);
    }
    wake_.notify_all();
    job->work();
    retire(job);
    job->wait();
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_) return;
      const std::shared_ptr<Job> job = jobs_.front();
      lock.unlock();
      job->work();
      lock.lock();
      retire_locked(job);
    }
  }

  // Unpublishes a job whose chunks are all claimed (idempotent).
  void retire(const std::shared_ptr<Job>& job) {
    const std::lock_guard<std::mutex> lock(mutex_);
    retire_locked(job);
  }

  void retire_locked(const std::shared_ptr<Job>& job) {
    const auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) jobs_.erase(it);
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> jobs_;  // guarded by mutex_
  bool stop_ = false;                      // guarded by mutex_
  std::vector<std::thread> threads_;
};

}  // namespace

void parallel_run(std::size_t workers, const std::function<void(std::size_t)>& task) {
  if (workers == 0) return;
  const auto job = std::make_shared<Job>(task, workers);
  if (workers == 1 || worker_count() == 1) {
    job->work();  // strictly inline: the pool is never started
  } else {
    static Pool pool(worker_count() - 1);
    pool.run(job);
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace idgka::net
