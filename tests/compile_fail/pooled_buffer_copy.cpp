// pool-pairing: a PooledBuffer returns itself to its pool exactly once, so
// it cannot be copied.  Must fail with: use of deleted function
// ... PooledBuffer::PooledBuffer(const ...).
#include "compress/buffer_pool.hpp"

void stage(bitio::cz::BufferPool& pool) {
  bitio::cz::PooledBuffer a = pool.acquire(64);
  bitio::cz::PooledBuffer b = a;
}
