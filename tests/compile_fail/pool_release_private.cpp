// pool-pairing: every pooled byte enters through acquire(), so a foreign
// vector cannot be handed to the pool.  Must fail with:
// ... is private within this context.
#include <vector>

#include "compress/buffer_pool.hpp"

void adopt(bitio::cz::BufferPool& pool) {
  pool.release(std::vector<std::uint8_t>(64));
}
