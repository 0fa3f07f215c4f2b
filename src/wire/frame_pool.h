// Recycling pool for encoded-frame byte buffers.
//
// Every message that touches the medium is serialized into one heap
// buffer; under the deposit-path churn of a large simulation that is the
// single hottest allocation site (one buffer per broadcast, dropped as
// soon as every receiver has drained its copy). acquire_buffer() hands
// out a buffer whose release — the last Frame copy going away, on
// whichever run or host thread that happens — returns it to a
// mutex-striped free list instead of the allocator, so steady-state
// encode costs no malloc/free round trip. Stripes are picked by thread,
// keeping contention between concurrently resumed runs to the occasional
// work-stealing miss; each stripe is bounded, so a burst can only park a
// fixed number of buffers (beyond that they free normally).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace idgka::wire {

/// A buffer of exactly `size` bytes (contents unspecified — the caller
/// overwrites every byte). Reuses a pooled buffer when one is available
/// on the calling thread's stripe; the custom deleter returns the buffer
/// to the pool when the last shared reference drops.
[[nodiscard]] std::shared_ptr<std::vector<std::uint8_t>> acquire_buffer(std::size_t size);

/// Lifetime pool counters (merged across stripes; monotonic).
struct FramePoolStats {
  std::uint64_t hits = 0;     ///< acquires served from the free list
  std::uint64_t misses = 0;   ///< acquires that had to allocate
  std::uint64_t returns = 0;  ///< buffers parked back on a stripe
  std::uint64_t dropped = 0;  ///< releases that freed (stripe full / oversized)
};
[[nodiscard]] FramePoolStats frame_pool_stats();

}  // namespace idgka::wire
