#include "compress/buffer_pool.hpp"

namespace bitio::cz {

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      bytes_(std::move(other.bytes_)) {}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    bytes_ = std::move(other.bytes_);
  }
  return *this;
}

void PooledBuffer::reset() noexcept {
  if (pool_) std::exchange(pool_, nullptr)->release(std::move(bytes_));
  bytes_ = {};
}

BufferPool::BufferPool(std::size_t max_per_class)
    : max_per_class_(max_per_class) {}

std::size_t BufferPool::class_for(std::size_t size) {
  std::size_t bits = kMinClassBits;
  while (bits <= kMaxClassBits && (std::size_t(1) << bits) < size) ++bits;
  return bits - kMinClassBits;  // == kClasses when size > 2^kMaxClassBits
}

PooledBuffer BufferPool::acquire_class(std::size_t cls, std::size_t size,
                                      bool reserve_only) {
  std::vector<std::uint8_t> buf;
  if (cls >= kClasses) {
    // Oversized request: serve unpooled, count as a miss so the hit rate
    // reflects real allocator traffic.
    util::MutexLock lock(mutex_);
    ++stats_.misses;
  } else {
    bool hit = false;
    {
      util::MutexLock lock(mutex_);
      auto& freelist = free_[cls];
      if (!freelist.empty()) {
        buf = std::move(freelist.back());
        freelist.pop_back();
        hit = true;
        ++stats_.hits;
      } else {
        ++stats_.misses;
      }
    }
    if (!hit) buf.reserve(std::size_t(1) << (kMinClassBits + cls));
  }
  if (reserve_only) {
    buf.clear();
    if (buf.capacity() < size) buf.reserve(size);
  } else {
    // resize() value-initialises any bytes beyond the old size; recycled
    // buffers keep their stale contents (documented — callers overwrite).
    buf.resize(size);
  }
  return PooledBuffer(this, std::move(buf));
}

PooledBuffer BufferPool::acquire(std::size_t size) {
  return acquire_class(class_for(size), size, /*reserve_only=*/false);
}

PooledBuffer BufferPool::acquire_reserve(std::size_t capacity) {
  return acquire_class(class_for(capacity), capacity, /*reserve_only=*/true);
}

void BufferPool::release(std::vector<std::uint8_t>&& buffer) {
  const std::size_t cap = buffer.capacity();
  if (cap == 0) return;  // moved-from / placeholder, nothing to recycle
  // File the buffer under the largest class its capacity fully covers, so
  // a later acquire of that class size is guaranteed not to reallocate.
  std::size_t cls = class_for(cap);
  if (cls < kClasses && (std::size_t(1) << (kMinClassBits + cls)) > cap) {
    if (cls == 0) return;  // smaller than the smallest class: drop it
    --cls;
  }
  util::MutexLock lock(mutex_);
  ++stats_.released;
  if (cls >= kClasses) return;  // oversized buffers are never retained
  auto& freelist = free_[cls];
  if (freelist.size() >= max_per_class_) return;  // bounded depth: free it
  buffer.clear();
  freelist.push_back(std::move(buffer));
}

BufferPool::Stats BufferPool::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

void BufferPool::reset_stats() {
  util::MutexLock lock(mutex_);
  stats_ = Stats{};
}

void BufferPool::trim() {
  util::MutexLock lock(mutex_);
  for (auto& freelist : free_) freelist.clear();
}

BufferPool& BufferPool::shared() {
  // Leaked like ThreadPool::shared(): codec pipelines may run during
  // static destruction and must still find a live pool.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace bitio::cz
