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
// same bit order, so it is a drop-in for the table loop, 8 bytes per
// instruction.  One instruction has a latency of three cycles but a
// throughput of one per cycle, so a single dependent chain leaves two
// thirds of it idle: the kernel runs three chains over three adjacent
// blocks and joins them.
bool cpu_has_sse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/// Shifting a raw CRC register over N zero bytes multiplies it by
/// x^(8N) mod P, which is linear in the register's bits: four 256-entry
/// tables, one per register byte, hold the shift of every byte value.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

ShiftTable make_shift_table(std::size_t zero_bytes) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::array<std::uint32_t, 32> bit_shift{};  // each register bit, shifted
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = std::uint32_t(1) << bit;
    for (std::size_t i = 0; i < zero_bytes; ++i)
      crc = table[crc & 0xFFu] ^ (crc >> 8);
    bit_shift[bit] = crc;
  }
  ShiftTable shift{};
  for (int lane = 0; lane < 4; ++lane)
    for (std::uint32_t value = 0; value < 256; ++value)
      for (int bit = 0; bit < 8; ++bit)
        if (value & (1u << bit))
          shift[lane][value] ^= bit_shift[8 * lane + bit];
  return shift;
}

std::uint32_t shift_crc(const ShiftTable& shift, std::uint32_t crc) {
  return shift[0][crc & 0xFFu] ^ shift[1][(crc >> 8) & 0xFFu] ^
         shift[2][(crc >> 16) & 0xFFu] ^ shift[3][crc >> 24];
}

/// Three chains over blocks of `block` bytes each, `n` reduced to below
/// 3 * block: the first chain continues `crc`, the other two start from a
/// zero register, and crc(A B C) = shift(shift(crc(A)) ^ crc(B)) ^ crc(C).
__attribute__((target("sse4.2"))) std::uint64_t crc32c_three_streams(
    std::uint64_t crc, const std::uint8_t*& p, std::size_t& n,
    std::size_t block, const ShiftTable& shift) {
  for (; n >= 3 * block; p += 3 * block, n -= 3 * block) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + block + i, 8);
      std::memcpy(&w2, p + 2 * block + i, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift_crc(shift, std::uint32_t(crc)) ^ std::uint32_t(crc1);
    crc = shift_crc(shift, std::uint32_t(crc)) ^ std::uint32_t(crc2);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const ShiftTable long_shift = make_shift_table(kLongBlock);
  static const ShiftTable short_shift = make_shift_table(kShortBlock);
  std::uint64_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  crc = crc32c_three_streams(crc, p, n, kLongBlock, long_shift);
  crc = crc32c_three_streams(crc, p, n, kShortBlock, short_shift);
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
