#pragma once
// XXH64 64-bit content hash (seed 0), written from the public xxHash spec.
//
// The dedup key of the incremental-checkpoint layer, computed once per
// staged block (core::checkpoint_blocks) and recorded in the MANIFEST:
// resil::CheckpointManager compares the hashes of staged blocks against the
// last committed epoch to decide what actually changed, and restores
// re-hash each referenced block against it.  miniBP does not record it; a
// base chunk is identified by its CRC32C.  The hash is not cryptographic —
// it only has to make accidental collisions between two different particle
// arrays vanishingly unlikely — but it runs over every staged byte at every
// checkpoint, so its speed is the commit's.  XXH64 keeps four independent
// 64-bit lanes over 32-byte stripes, so the multiplies overlap instead of
// forming one dependent chain per byte as FNV-1a did: several GB/s against
// under one.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace bitio::util {

static_assert(std::endian::native == std::endian::little,
              "hash64 reads its input with native little-endian word loads");

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t word;
  std::memcpy(&word, p, 4);
  return word;
}

inline std::uint64_t round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// XXH64 with seed 0 over a byte span (zero-length blocks hash to a fixed
/// value, so they still dedup).
inline std::uint64_t hash64(std::span<const std::uint8_t> data) {
  using namespace xxh64_detail;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; n >= 32; p += 32, n -= 32) {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kPrime5;
  }
  h += data.size();
  for (; n >= 8; p += 8, n -= 8) {
    h ^= round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    h ^= std::uint64_t(load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Typed convenience: hash the in-memory representation of an array.
template <typename T>
std::uint64_t hash64_of(std::span<const T> data) {
  return hash64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()));
}

}  // namespace bitio::util
