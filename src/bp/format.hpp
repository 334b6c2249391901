#pragma once
// Binary (de)serialization of miniBP metadata: StepRecords for md.0,
// IndexEntries for md.idx, and the footer that closes md.0.  The format is
// bounds-checked and checksummed so a truncated or corrupt container fails
// loudly on read (the original BIT1 failure mode the paper reports —
// corrupted output files beyond 20k ranks — must be *detectable* here).
//
// One version per surface:
//   md.0 step block ("MD07")  each variable names its operator once; each
//       chunk record keeps only its placement, sizes, statistics and the
//       CRC32C of its stored bytes (no content hash: miniBP hashes
//       nothing); the block ends in a CRC32C over itself.  Every shape,
//       offset and count has rank <= kMaxRank (3, bp/types.hpp); a block
//       declaring a higher rank is a FormatError.
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
//
// The per-chunk path lives here too, once for every engine: the put-side
// checks (check_put), the marshal that turns a chunk into its stored bytes
// and ChunkRecord (marshal_chunk / synthetic_chunk), the CPU model the
// engines charge for it, and the read-side check and scatter
// (decode_chunk / scatter_chunk).  The file engine (bp::Writer), the
// stream engine and bp::Reader all call these, so a chunk's record and
// decoded bytes cannot depend on which engine moved it.

#ifdef BITIO_BP_SEAM_ONLY
// Outside src/bp, BITIO_BP_SEAM_ONLY is set (src/CMakeLists.txt).
#error "bp-internal header: outside src/bp include bp/engine.hpp instead"
#endif

#include <optional>
#include <span>

#include "bp/types.hpp"
#include "compress/codec.hpp"
#include "util/binio.hpp"

namespace bitio::bp {

inline constexpr std::uint32_t kMdMagic = 0x4D443037;   // "MD07"
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

/// Serialize one step's metadata (appended to md.0): one pass sizes the
/// block exactly, a second writes it into a buffer of that size.  Throws
/// bitio::Error if the two passes disagree.
EncodedStep encode_step(const StepRecord& record);
/// Parse one step's metadata, verifying its trailing CRC first.  Throws
/// FormatError on corruption, an unknown version magic, a rank above
/// kMaxRank, an operator name outside cz::kCodecNames, or a chunk that
/// fails chunk_in_shape against its variable's shape.
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

// --- chunk path --------------------------------------------------------------

/// Modelled CRC32C throughput for the per-chunk checksum charge (software
/// slice-by-one on one core; same order as the memcopy bandwidth).
inline constexpr double kCrcBandwidthBps = 12e9;

/// CPU seconds an engine charges for compressing `raw_bytes` with `codec`:
/// serial time, or fsim::parallel_cpu_seconds over compress_block_kb-KiB
/// blocks when compress_threads > 1.
double compress_cpu_seconds(const cz::Codec& codec, std::uint64_t raw_bytes,
                            int compress_threads,
                            std::size_t compress_block_kb);

/// The put-side checks every engine applies: an open step, `rank` inside
/// [0, nranks), and a chunk that fits `shape` (chunk_in_shape).  Throws
/// UsageError prefixed "bp::put".  A rank above kMaxRank never gets here:
/// building its Dims already threw UsageError.
void check_put(bool step_open, int rank, int nranks, const std::string& name,
               const Dims& shape, const Dims& offset, const Dims& count);

/// Marshal one real chunk: apply `codec` (nullptr = no operator) to `raw`,
/// append the stored bytes to `dst`, and return the chunk's complete
/// record — stored and raw sizes, CRC32C of the stored bytes and min/max
/// of the values.  subfile and file_offset stay zero; the file engine
/// fills them in.  The operator is the variable's (VarRecord).
ChunkRecord marshal_chunk(const cz::Codec* codec, Datatype dtype,
                          std::span<const std::uint8_t> raw, Dims offset,
                          Dims count, std::uint32_t writer_rank,
                          std::vector<std::uint8_t>& dst);

/// The record of a size-only (synthetic) chunk: no bytes, so no CRC or
/// statistics; under a codec the stored size is the raw size scaled by
/// `codec_ratio`.
ChunkRecord synthetic_chunk(const cz::Codec* codec, double codec_ratio,
                            Datatype dtype, Dims offset, Dims count,
                            std::uint32_t writer_rank);

/// Byte size of `var`'s whole global array, which Reader::read and
/// decode_stream_variable check before they allocate it.  Throws
/// FormatError when the size overflows uint64 or passes 2^48 bytes, more
/// than any one process on a 64-bit host can address: a CRC-valid shape
/// no reader could back never surfaces as std::bad_alloc.
std::size_t array_bytes(const VarRecord& var);

/// Check and decode one chunk of `var` from its stored bytes: the CRC32C
/// (when the record carries one), the undo of the variable's operator
/// (cz::decompress_frame dispatches on the frame magic, and rejects a frame
/// declaring any size but count * dtype before allocating), and the raw
/// size against count * dtype.  Returns the raw bytes.  Throws FormatError
/// mentioning `where` on any disagreement.
std::vector<std::uint8_t> decode_chunk(const VarRecord& var,
                                       const ChunkRecord& chunk,
                                       std::vector<std::uint8_t> stored,
                                       const std::string& where);

/// Modelled decode throughput of `var`'s operator, for the CPU a reader
/// charges per decoded chunk; 0 when the variable has no operator.  Builds
/// the codec, so call it once per variable, not per chunk.
double decompress_speed_bps(const VarRecord& var);

/// Copy a chunk's decoded row-major bytes into place in `out`, the global
/// array of `shape` with `elem`-byte elements.  The chunk must fit `shape`
/// (chunk_in_shape; decode_step and check_put guarantee it).
void scatter_chunk(std::span<std::uint8_t> out, const Dims& shape,
                   const ChunkRecord& chunk, std::size_t elem,
                   std::span<const std::uint8_t> raw);

}  // namespace bitio::bp
