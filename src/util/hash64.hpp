#pragma once
// FNV-1a 64-bit content hash.
//
// The dedup key of the incremental-checkpoint layer, computed once per
// staged block (core::checkpoint_blocks) and recorded in the MANIFEST:
// resil::CheckpointManager compares the hashes of staged blocks against the
// last committed epoch to decide what actually changed, and restores
// re-hash each referenced block against it.  miniBP does not record it; a
// base chunk is identified by its CRC32C.  FNV-1a is not
// cryptographic — it only has to make accidental collisions between two
// different particle arrays vanishingly unlikely, and it must be cheap
// enough to run over every staged block at every checkpoint.

#include <cstdint>
#include <span>

namespace bitio::util {

inline constexpr std::uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv64Prime = 0x100000001b3ull;

/// FNV-1a 64 over a byte span (the hash of an empty span is the offset
/// basis, so zero-length blocks still dedup).
inline std::uint64_t hash64(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnv64OffsetBasis;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kFnv64Prime;
  }
  return h;
}

/// Typed convenience: hash the in-memory representation of an array.
template <typename T>
std::uint64_t hash64_of(std::span<const T> data) {
  return hash64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()));
}

}  // namespace bitio::util
