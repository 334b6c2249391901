#pragma once
// Size-classed recycling pool for the byte buffers of the write hot path.
//
// Every per-chunk buffer the bp::Writer marshalling/compression pipeline
// touches — staged put() payloads, per-aggregator aggregation buffers, the
// codec pipeline's per-block scratch — cycles through one of these pools,
// so a steady-state step performs no heap allocation: step N's acquires
// are served by step N-1's releases (the BP5 "BufferV" idea of reusing
// pinned marshalling slabs instead of malloc/free per Put).
//
// acquire() hands out a PooledBuffer: a move-only owner of a plain
// std::vector<std::uint8_t> whose destructor moves the vector back into the
// pool, so every path out of the owner's scope — early returns and
// exceptions included — returns the buffer.  Capacity classes are powers
// of two; a returned buffer joins the class its *capacity* fits, so buffers
// that grew while in use come back to the larger class.  Per-class depth is
// bounded — returns beyond the bound free the memory instead of hoarding
// it.  A pool must outlive its PooledBuffers (an owning class declares its
// pool before every member that holds one).
//
// hits()/misses() make the steady-state guarantee testable: after warmup
// the writer asserts a >= 99% hit rate (tests/bp_test.cpp) and the TSan
// suite hammers acquire/release from 8 threads.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace bitio::cz {

class BufferPool;

/// A buffer on loan from a BufferPool.  Move-only; the destructor (or
/// reset()) returns the vector to the pool it came from.  A default-
/// constructed PooledBuffer is empty and belongs to no pool.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { reset(); }

  std::vector<std::uint8_t>& operator*() { return bytes_; }
  const std::vector<std::uint8_t>& operator*() const { return bytes_; }
  std::vector<std::uint8_t>* operator->() { return &bytes_; }

  /// Return the buffer to its pool now; leaves this PooledBuffer empty.
  void reset() noexcept;

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, std::vector<std::uint8_t> bytes)
      : pool_(pool), bytes_(std::move(bytes)) {}

  BufferPool* pool_ = nullptr;
  std::vector<std::uint8_t> bytes_;
};

class BufferPool {
 public:
  /// Default per-class freelist depth.  Named so the config layer can
  /// validate against it (compress_threads beyond the depth would thrash
  /// the pool: every thread's scratch release past the bound deallocates).
  static constexpr std::size_t kDefaultMaxPerClass = 16;

  /// `max_per_class` bounds how many idle buffers each size class retains;
  /// releases past the bound deallocate (no unbounded hoarding).
  explicit BufferPool(std::size_t max_per_class = kDefaultMaxPerClass);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer with size() == `size` and capacity of at least the size
  /// class that fits it.  Contents are unspecified (recycled bytes are not
  /// cleared — every caller overwrites them).
  PooledBuffer acquire(std::size_t size) EXCLUDES(mutex_);

  /// An empty buffer (size() == 0) with capacity() >= `capacity`, for
  /// append-style producers (aggregation buffers, codec frames).  Appends
  /// within the reserved capacity never reallocate.
  PooledBuffer acquire_reserve(std::size_t capacity) EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t hits = 0;      // acquires served from a freelist
    std::uint64_t misses = 0;    // acquires that had to allocate
    std::uint64_t released = 0;  // buffers returned
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : double(hits) / double(total);
    }
  };
  Stats stats() const EXCLUDES(mutex_);

  /// Zero the counters (not the freelists): lets a test warm the pool up,
  /// reset, and then assert the steady-state hit rate in isolation.
  void reset_stats() EXCLUDES(mutex_);

  /// Drop every idle buffer (memory back to the allocator).  Counters are
  /// kept; subsequent acquires miss until the pool re-warms.
  void trim() EXCLUDES(mutex_);

  /// Process-wide pool for call sites without a natural owner (standalone
  /// codec pipelines, benches).  bp::Writer owns a private pool instead so
  /// its hit-rate accounting is not polluted by other users.
  static BufferPool& shared();

 private:
  friend class PooledBuffer;

  /// File a returned vector under its capacity class.  Private: every
  /// pooled byte enters through acquire(), and only a PooledBuffer hands
  /// its vector back.  Zero-capacity buffers (moved-from) are ignored and
  /// not counted.
  void release(std::vector<std::uint8_t>&& buffer) EXCLUDES(mutex_);

  // Capacity classes: class k holds buffers of capacity exactly 2^k bytes,
  // k in [kMinClassBits, kMaxClassBits].  Requests above the largest class
  // are served unpooled (they would hoard too much memory); requests below
  // the smallest round up.
  static constexpr std::size_t kMinClassBits = 6;   // 64 B
  static constexpr std::size_t kMaxClassBits = 26;  // 64 MiB
  static constexpr std::size_t kClasses = kMaxClassBits - kMinClassBits + 1;

  /// Index of the class whose capacity (2^(kMinClassBits + index)) covers
  /// `size`, or kClasses when the request is beyond the largest class.
  static std::size_t class_for(std::size_t size);

  PooledBuffer acquire_class(std::size_t cls, std::size_t size,
                             bool reserve_only) EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  std::array<std::vector<std::vector<std::uint8_t>>, kClasses> free_
      GUARDED_BY(mutex_);
  std::size_t max_per_class_;
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace bitio::cz
