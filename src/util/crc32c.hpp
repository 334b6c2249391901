#pragma once
// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum ADIOS2/HDF5-class containers use for end-to-end integrity.  The
// miniBP format stores one CRC per data chunk and per metadata block so
// torn writes and silent bit flips are *detectable* on read (the corruption
// failure mode the paper reports beyond 20k ranks).
//
// Two kernels, bit-identical: the SSE4.2 `crc32` instruction (selected at
// runtime via cpuid, so the binary still runs on machines without it),
// run as three independent chains over adjacent 8 KiB and then 256 B blocks
// that are joined by shifting a CRC over zero bytes; and a portable
// slice-by-one table loop, kept as the fallback and as the hardware
// kernel's differential oracle.

#include <cstdint>
#include <span>

namespace bitio {

/// CRC32C of `data`, continuing from `seed` (pass the previous return value
/// to checksum a logical stream in pieces; start with 0).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

/// The portable table kernel behind crc32c(), whatever the CPU supports.
std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0);

}  // namespace bitio
