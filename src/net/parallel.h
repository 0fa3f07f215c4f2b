// Fork-join parallelism for per-node protocol work, on one persistent pool.
//
// Protocol rounds are barriers: between them every member computes only on
// its own state plus its received (immutable) messages — the MPI-style
// share-nothing decomposition. parallel_for_each statically partitions the
// index range into one contiguous chunk per worker (no per-index claim, no
// per-index type-erased call — the body is invoked directly inside the
// chunk loop) and rethrows the first chunk exception.
//
// Pool: worker_count() - 1 threads, started on the first call that has
// more than one chunk and kept for the life of the process. A call
// publishes its chunks, then the calling thread claims chunks alongside the
// pool threads and finally waits only for chunks some other thread already
// claimed. So concurrent callers (the protocol runs of one executor batch,
// say) share the pool without a queue of idle waits: a caller whose pool
// threads are busy with another call's chunks runs its own chunks itself.
// A body may call parallel_for_each again (nested): the inner call makes
// progress on the calling thread whatever the pool is doing, so it cannot
// deadlock. Chunks of one call must not wait on each other — any of them
// may run after another on the same thread.
//
// IDGKA_THREADS=1 is strictly inline: no pool thread is ever started and
// every chunk runs on the calling thread, in index order.
//
// Determinism: the protocols draw randomness from per-member DRBGs and
// write per-member result slots, so the schedule cannot change any result;
// tests pass with any thread count (including IDGKA_THREADS=1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace idgka::net {

/// Number of threads that run parallel_for_each chunks, the caller included
/// (reads the IDGKA_THREADS environment variable once; defaults to the
/// hardware concurrency, capped at 16).
std::size_t worker_count();

/// Invokes task(w) for every w in [0, workers), each exactly once, on the
/// calling thread and the shared pool's threads; which thread runs which w
/// is unspecified. Blocks until all return; rethrows the first task
/// exception. The building block under parallel_for_each — exposed for
/// callers that bring their own partitioning.
void parallel_run(std::size_t workers, const std::function<void(std::size_t)>& task);

/// Invokes fn(i) for i in [0, count). With more than one worker the range
/// is split into contiguous chunks — chunk w owns indices
/// [w*count/workers, (w+1)*count/workers) — so per-index cost is one direct
/// call, not an atomic claim plus a std::function dispatch. Exceptions are
/// rethrown in the caller (first one wins; a throwing chunk abandons the
/// rest of its own indices only).
template <typename Fn>
void parallel_for_each(std::size_t count, Fn&& fn) {
  const std::size_t workers = std::min(worker_count(), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  parallel_run(workers, [count, workers, &fn](std::size_t w) {
    const std::size_t begin = w * count / workers;
    const std::size_t end = (w + 1) * count / workers;
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace idgka::net
