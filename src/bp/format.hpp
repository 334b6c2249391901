#pragma once
// Binary (de)serialization of miniBP metadata: StepRecords for md.0,
// IndexEntries for md.idx, and the footer that closes md.0.  The format is
// bounds-checked and checksummed so a truncated or corrupt container fails
// loudly on read (the original BIT1 failure mode the paper reports —
// corrupted output files beyond 20k ranks — must be *detectable* here).
//
// One version per surface:
//   md.0 step block ("MD06")  every chunk record carries the CRC32C of its
//       stored bytes and the FNV-1a content hash of its raw bytes (the
//       dedup key of incremental checkpoints); the block ends in a CRC32C
//       over itself.
//   md.idx ("IDX5")  fixed-size entries (step, md_offset, md_length, md_crc)
//       where md_crc is the CRC32C of the whole md.0 block, so the index
//       and the metadata cross-check each other.
//   footer ("FTR7")  appended to md.0 at close: the md.idx encoding of every
//       step's entry — a pointer table into md.0, not a copy of it —
//       followed by a fixed-size trailer pointing back at it.  A reader that
//       finds an intact footer takes its index from there; a missing, torn,
//       or corrupt footer falls back to md.idx (whose entries never point
//       into the footer region).
// Any other magic is a wrong-version/corrupt input and raises FormatError.

#include <optional>
#include <span>

#include "bp/types.hpp"
#include "util/binio.hpp"

namespace bitio::bp {

inline constexpr std::uint32_t kMdMagic = 0x4D443036;   // "MD06"
inline constexpr std::uint32_t kIdxMagic = 0x49445835;  // "IDX5"
inline constexpr std::uint32_t kIdxHeaderBytes = 8;     // magic + count
inline constexpr std::uint32_t kIdxEntryBytes = 32;
inline constexpr std::uint32_t kFtrMagic = 0x46545237;  // "FTR7"
/// Fixed-size footer trailer at the very end of md.0:
///   u64 footer_offset | u64 footer_length | u32 crc32c(footer) | u32 magic
inline constexpr std::uint32_t kFtrTrailerBytes = 24;

/// One encoded md.0 step block and the CRC32C of all of its bytes (the
/// md.idx entry's md_crc), derived from the block's own trailing CRC so the
/// block is checksummed once.
struct EncodedStep {
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;
};

/// Serialize one step's metadata (appended to md.0).
EncodedStep encode_step(const StepRecord& record);
/// Parse one step's metadata, verifying its trailing CRC first.  Throws
/// FormatError on corruption or an unknown version magic.
StepRecord decode_step(std::span<const std::uint8_t> data);
/// CRC32C of a whole step block that decode_step() already accepted, in
/// O(1): extends the verified trailing CRC over its own four bytes.
std::uint32_t step_block_crc(std::span<const std::uint8_t> block);

/// md.idx: header (magic + count) followed by fixed-size entries.  The
/// writer appends one entry per step and patches the header count.
void put_index_header(BinWriter& writer, std::uint32_t count);
void put_index_entry(BinWriter& writer, const IndexEntry& entry);
std::vector<std::uint8_t> encode_index(const std::vector<IndexEntry>& index);
std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> data);

/// The footer close() appends to md.0 at `footer_offset` (the end of the
/// last step block): encode_index(index) plus the trailer.
std::vector<std::uint8_t> encode_footer(const std::vector<IndexEntry>& index,
                                        std::uint64_t footer_offset);
/// The index entries of the footer at the end of a whole md.0 file, or
/// nullopt when md.0 ends in no intact footer (a container still being
/// written, or a torn or corrupt tail).  Throws FormatError when a footer
/// whose CRC checks out does not decode as an index.
std::optional<std::vector<IndexEntry>> decode_footer(
    std::span<const std::uint8_t> md0);

}  // namespace bitio::bp
