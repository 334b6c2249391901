#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define BITIO_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace bitio {

namespace {

// 256-entry lookup table for the reflected Castagnoli polynomial, built once
// at first use (constexpr-buildable, but a function-local static keeps the
// header free of the table).
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

#ifdef BITIO_CRC32C_X86
// The SSE4.2 crc32 instruction implements exactly this polynomial with the
// same bit order, so it is a drop-in for the table loop: 8 bytes per
// instruction, then a bytewise tail.
bool cpu_has_sse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint64_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = std::uint32_t(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
#ifdef BITIO_CRC32C_X86
  if (cpu_has_sse42()) return crc32c_sse42(data, seed);
#endif
  return crc32c_table(data, seed);
}

}  // namespace bitio
